package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp says what was measured, and where: every result carries it.
type stamp struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// OpenRate is the open-loop phase's arrival rate (requests/s).
	OpenRate float64 `json:"openRate"`
	Replicas int     `json:"replicas"`
	// Commit is the git HEAD when the checkout is a repository, else
	// "unknown"; SourceSHA256 hashes the Go sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"sourceSHA256"`
	Nproc        int    `json:"nproc"`
	// GOMAXPROCS is the servers' (the Go default, one per CPU: they run
	// with default flags and environment); ClientGOMAXPROCS the load
	// generator's during the HTTP phases.
	GOMAXPROCS       int        `json:"gomaxprocs"`
	ClientGOMAXPROCS int        `json:"clientGomaxprocs"`
	GoVersion        string     `json:"goVersion"`
	ServerFlags      [][]string `json:"serverFlags"`
}

func newStamp(cfg config, fl *fleet) stamp {
	return stamp{
		Workload:         cfg.w.name,
		Seed:             cfg.seed,
		Seconds:          cfg.seconds,
		Trace:            cfg.trace,
		OpenRate:         cfg.w.rate,
		Replicas:         cfg.w.replicas,
		Commit:           gitCommit(),
		SourceSHA256:     sourceHash("."),
		Nproc:            cfg.nproc,
		GOMAXPROCS:       runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		ServerFlags:      fl.args,
	}
}

func gitCommit() string {
	out, err := osexec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root, skipping
// dot-directories (VCS metadata, build output), in lexical path order.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !d.Type().IsRegular() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
