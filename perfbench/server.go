package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is a set of risc1-serve processes on loopback: one standalone
// server, or replicas joined by -cluster config files.
type fleet struct {
	procs []*osexec.Cmd
	urls  []string
	args  [][]string // each process's command-line flags
}

// freePorts reserves n loopback ports by binding them all at once, then
// releases them for the servers to take.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// clusterConfig is the risc1.cluster-config/v1 document each replica loads.
type clusterConfig struct {
	Schema string   `json:"schema"`
	Self   string   `json:"self"`
	Peers  []string `json:"peers"`
}

// startFleet spawns n servers with default flags apart from the listen
// address (and, for n > 1, the -cluster file). Config files and logs go
// under dir.
func startFleet(bin, dir string, n int) (*fleet, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, p := range ports {
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	for i, p := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p)}
		if n > 1 {
			// A struct of strings always marshals.
			cfg, _ := json.Marshal(clusterConfig{
				Schema: "risc1.cluster-config/v1", Self: f.urls[i], Peers: f.urls,
			})
			path := filepath.Join(dir, fmt.Sprintf("cluster-%d.json", i))
			if err := os.WriteFile(path, cfg, 0o644); err != nil {
				f.stop()
				return nil, err
			}
			args = append(args, "-cluster", path)
		}
		log, err := os.Create(filepath.Join(dir, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := osexec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = log, log
		// The servers die with the benchmark even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		log.Close()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, cmd)
		f.args = append(f.args, args)
	}
	return f, nil
}

// waitHealthy polls every /healthz until it answers 200.
func (f *fleet) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, u := range f.urls {
		for {
			resp, err := c.Get(u + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %v", u, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// stop terminates every server and waits for it to exit: SIGTERM for a
// clean drain, SIGKILL if it has not exited within five seconds.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
	f.procs = nil
}

// rssMiB sums the servers' peak resident set (VmHWM).
func (f *fleet) rssMiB() (float64, error) {
	var total float64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, ok := statusField(b, "VmHWM:")
		if !ok {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.Process.Pid)
		}
		total += kb / 1024
	}
	return total, nil
}

// cpuSeconds sums the time the servers' threads have spent on a CPU,
// from /proc/<pid>/task/<tid>/schedstat. The kernel counts it on a clock
// that stops while the host has taken the virtual CPU away (steal), so
// it reads the same whether or not neighbours on the host are busy.
func (f *fleet) cpuSeconds() (float64, error) {
	var ns float64
	for _, p := range f.procs {
		dir := fmt.Sprintf("/proc/%d/task", p.Process.Pid)
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			fields := strings.Fields(string(b))
			if len(fields) == 0 {
				return 0, fmt.Errorf("empty schedstat for pid %d", p.Process.Pid)
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			ns += v
		}
	}
	return ns / 1e9, nil
}

// statusField reads a "Name:   123 kB" line of /proc/<pid>/status.
func statusField(b []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// counters is a /metrics scrape summed over the fleet: unlabeled series
// by name.
type counters map[string]float64

func (f *fleet) scrape(c *http.Client) (counters, error) {
	total := counters{}
	for _, u := range f.urls {
		resp, err := c.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for name, v := range parseMetrics(b) {
			total[name] += v
		}
	}
	return total, nil
}

// parseMetrics reads the unlabeled samples of a Prometheus text
// exposition; labeled series and comments are skipped.
func parseMetrics(b []byte) counters {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta is after minus before, per series.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
