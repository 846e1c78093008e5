// Package cluster is risc1-serve's live replica-membership layer: a
// typed, versioned cluster configuration (risc1.cluster-config/v1), a
// capability fingerprint exchanged at startup so heterogeneous replicas
// are detected instead of silently mis-serving, and a health-checked
// membership table that recomputes the consistent-hash routing ring
// over live members only. A static peer list made a dead home replica
// a permanent 502; this package makes downness an observed,
// recoverable state — a down home means the edge serves locally, and a
// recovered peer rejoins the ring after one successful probe.
//
// The package is deliberately coordination-free, like the ring it
// feeds: every replica probes every other and forms its own view.
// Views converge because they observe the same processes, not because
// anyone agrees on them — which keeps the cluster contract as small
// and regular as the v1 run contract (the RISC argument applied to
// membership).
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// ConfigSchema names the typed cluster configuration document.
const ConfigSchema = "risc1.cluster-config/v1"

// Config is one replica's cluster configuration
// (risc1.cluster-config/v1): the full replica set, which entry is this
// replica, and the health/replication knobs, loaded from a JSON file
// (risc1-serve -cluster file.json).
type Config struct {
	// Schema names the document contract; empty means v1 on input and
	// is normalized to ConfigSchema.
	Schema string `json:"schema,omitempty"`
	// Self is this replica's entry in Peers (base URL).
	Self string `json:"self"`
	// Peers lists every replica's base URL, this one included.
	Peers []string `json:"peers"`
	// ProbeIntervalMS is how often each peer is health-probed;
	// <= 0 means 1000.
	ProbeIntervalMS int64 `json:"probeIntervalMS,omitempty"`
	// ProbeTimeoutMS bounds one probe; <= 0 means 2000.
	ProbeTimeoutMS int64 `json:"probeTimeoutMS,omitempty"`
	// FailAfter is how many consecutive failures (probe or relay) mark
	// a peer down; <= 0 means 3. One successful probe marks it up again.
	FailAfter int `json:"failAfter,omitempty"`
	// HotThreshold is the per-key request count past which a peer-homed
	// result is replicated locally; 0 means 8.
	HotThreshold uint64 `json:"hotThreshold,omitempty"`
	// PeerCacheBytes budgets the local store of hot peer responses;
	// 0 means 64 MiB.
	PeerCacheBytes int64 `json:"peerCacheBytes,omitempty"`
}

// ProbeInterval returns the effective probe cadence.
func (c Config) ProbeInterval() time.Duration {
	if c.ProbeIntervalMS <= 0 {
		return time.Second
	}
	return time.Duration(c.ProbeIntervalMS) * time.Millisecond
}

// ProbeTimeout returns the effective per-probe deadline.
func (c Config) ProbeTimeout() time.Duration {
	if c.ProbeTimeoutMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(c.ProbeTimeoutMS) * time.Millisecond
}

// FailThreshold returns the effective consecutive-failure count that
// marks a peer down.
func (c Config) FailThreshold() int {
	if c.FailAfter <= 0 {
		return 3
	}
	return c.FailAfter
}

// Parse decodes and validates a risc1.cluster-config/v1 document.
// Unknown fields are rejected — a typo'd knob must fail loudly, not
// silently select a default.
func Parse(b []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("cluster config: %w", err)
	}
	if c.Schema != "" && c.Schema != ConfigSchema {
		return Config{}, fmt.Errorf("cluster config: unknown schema %q; this build speaks %q", c.Schema, ConfigSchema)
	}
	return c.normalize()
}

// Load reads and parses a cluster config file.
func Load(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("cluster config: %w", err)
	}
	return Parse(b)
}

// normalize cleans URLs (whitespace, trailing slashes), deduplicates
// the peer list preserving order, and validates the self/peers
// relationship.
func (c Config) normalize() (Config, error) {
	clean := func(u string) string {
		return strings.TrimRight(strings.TrimSpace(u), "/")
	}
	c.Schema = ConfigSchema
	c.Self = clean(c.Self)
	seen := make(map[string]bool, len(c.Peers))
	peers := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		if p = clean(p); p != "" && !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	c.Peers = peers
	if len(c.Peers) == 0 {
		return Config{}, fmt.Errorf("cluster config: peers is empty")
	}
	if c.Self == "" {
		return Config{}, fmt.Errorf("cluster config: self is required")
	}
	if !seen[c.Self] {
		return Config{}, fmt.Errorf("cluster config: self %q is not among peers %v", c.Self, c.Peers)
	}
	return c, nil
}
