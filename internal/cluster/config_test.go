package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	c, err := Parse([]byte(`{
		"schema": "risc1.cluster-config/v1",
		"self": "http://a:8081/",
		"peers": ["http://a:8081", " http://b:8082/ ", "http://a:8081"],
		"probeIntervalMS": 250,
		"failAfter": 2,
		"hotThreshold": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Self != "http://a:8081" {
		t.Errorf("self = %q, want normalized http://a:8081", c.Self)
	}
	if len(c.Peers) != 2 || c.Peers[0] != "http://a:8081" || c.Peers[1] != "http://b:8082" {
		t.Errorf("peers = %v, want deduped, trimmed pair", c.Peers)
	}
	if got := c.ProbeInterval(); got != 250*time.Millisecond {
		t.Errorf("ProbeInterval = %v", got)
	}
	if got := c.FailThreshold(); got != 2 {
		t.Errorf("FailThreshold = %d", got)
	}
	if c.HotThreshold != 4 {
		t.Errorf("HotThreshold = %d", c.HotThreshold)
	}
}

func TestParseConfigDefaults(t *testing.T) {
	c, err := Parse([]byte(`{"self": "http://a:1", "peers": ["http://a:1", "http://b:2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Schema != ConfigSchema {
		t.Errorf("schema normalized to %q, want %q", c.Schema, ConfigSchema)
	}
	if c.ProbeInterval() != time.Second || c.ProbeTimeout() != 2*time.Second || c.FailThreshold() != 3 {
		t.Errorf("defaults: interval=%v timeout=%v failAfter=%d",
			c.ProbeInterval(), c.ProbeTimeout(), c.FailThreshold())
	}
}

func TestParseConfigRejections(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown schema", `{"schema": "risc1.cluster-config/v9", "self": "http://a:1", "peers": ["http://a:1"]}`, "unknown schema"},
		{"unknown field", `{"self": "http://a:1", "peers": ["http://a:1"], "probe_interval": 5}`, "probe_interval"},
		{"missing self", `{"peers": ["http://a:1"]}`, "self is required"},
		{"self not a peer", `{"self": "http://c:3", "peers": ["http://a:1", "http://b:2"]}`, "not among peers"},
		{"empty peers", `{"self": "http://a:1", "peers": []}`, "peers is empty"},
		{"malformed", `{"self": `, "cluster config"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(`{"self": "http://a:1", "peers": ["http://a:1", "http://b:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Self != "http://a:1" || len(c.Peers) != 2 {
		t.Errorf("loaded %+v", c)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file did not fail")
	}
}

func TestFingerprintCompatibility(t *testing.T) {
	base := NewFingerprint([]string{"risc1", "cisc", "rv32"}, 1<<26, 10*time.Second, 1<<20)
	if !base.Compatible(base) {
		t.Fatal("fingerprint incompatible with itself")
	}
	// Machine order must not matter (NewFingerprint sorts).
	reordered := NewFingerprint([]string{"rv32", "risc1", "cisc"}, 1<<26, 10*time.Second, 1<<20)
	if !base.Compatible(reordered) {
		t.Error("machine registration order leaked into the fingerprint")
	}
	for name, other := range map[string]Fingerprint{
		"protocol": func() Fingerprint { f := base; f.Protocol++; return f }(),
		"machines": NewFingerprint([]string{"risc1"}, 1<<26, 10*time.Second, 1<<20),
		"fuel":     NewFingerprint([]string{"risc1", "cisc", "rv32"}, 1<<20, 10*time.Second, 1<<20),
		"timeout":  NewFingerprint([]string{"risc1", "cisc", "rv32"}, 1<<26, 5*time.Second, 1<<20),
		"source":   NewFingerprint([]string{"risc1", "cisc", "rv32"}, 1<<26, 10*time.Second, 1<<10),
	} {
		if base.Compatible(other) {
			t.Errorf("%s mismatch reported compatible", name)
		}
		if d := base.Diff(other); d == "compatible" || d == "" {
			t.Errorf("%s mismatch: Diff = %q", name, d)
		}
	}
}
