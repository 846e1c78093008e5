package peer

import (
	"fmt"
	"testing"
)

// TestRingDeterministic: two rings built from the same node list agree
// on every key — the property that lets replicas agree on placement by
// configuration alone.
func TestRingDeterministic(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r1 := NewRing(nodes, 0)
	r2 := NewRing(nodes, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("rings disagree on %q: %q vs %q", key, r1.Owner(key), r2.Owner(key))
		}
	}
}

// TestRingOrderIndependent: the node list's order must not affect
// placement — operators won't list peers identically on every replica.
func TestRingOrderIndependent(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 0)
	b := NewRing([]string{"n3", "n1", "n2"}, 0)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("node order changed owner of %q: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestRingBalance: with enough virtual nodes, no replica owns a wildly
// disproportionate share of a uniform key space.
func TestRingBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(nodes, 0)
	counts := make(map[string]int)
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("%064x", i))]++
	}
	want := keys / len(nodes)
	for _, n := range nodes {
		got := counts[n]
		if got < want/2 || got > want*2 {
			t.Errorf("node %s owns %d of %d keys, want within 2x of %d", n, got, keys, want)
		}
	}
}

// TestRingStability: removing one node must not move keys between the
// surviving nodes — only the removed node's share is redistributed.
func TestRingStability(t *testing.T) {
	full := NewRing([]string{"n1", "n2", "n3"}, 0)
	partial := NewRing([]string{"n1", "n2"}, 0)
	moved := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		after := partial.Owner(key)
		if before == "n3" {
			continue // orphaned share may land anywhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving nodes on membership change, want 0", moved)
	}
}

// TestRingEdgeCases: empty and single-node rings, duplicate names.
func TestRingEdgeCases(t *testing.T) {
	if owner := NewRing(nil, 0).Owner("k"); owner != "" {
		t.Errorf("empty ring owner = %q, want empty", owner)
	}
	solo := NewRing([]string{"only"}, 0)
	for i := 0; i < 10; i++ {
		if owner := solo.Owner(fmt.Sprintf("k%d", i)); owner != "only" {
			t.Errorf("single-node ring owner = %q", owner)
		}
	}
	dup := NewRing([]string{"a", "a", "b", ""}, 0)
	if n := len(dup.Nodes()); n != 2 {
		t.Errorf("duplicate+empty names collapsed to %d nodes, want 2", n)
	}
}
