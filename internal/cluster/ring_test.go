package cluster

import (
	"fmt"
	"testing"
)

func TestOwnerDeterministicAcrossBuilds(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := New(nodes)
	// Shuffled membership order and duplicates must not change ownership.
	r2 := New([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1", ""})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("d%d", i)
		if got1, got2 := r1.Owner(key), r2.Owner(key); got1 != got2 {
			t.Fatalf("Owner(%q) differs across builds: %q vs %q", key, got1, got2)
		}
	}
}

func TestOwnerSpread(t *testing.T) {
	// Besides distinct hosts, loopback URLs that differ only in the
	// port: the node sets of a local cluster or a test of one.
	loopback := func(ports ...int) []string {
		var out []string
		for _, p := range ports {
			out = append(out, fmt.Sprintf("http://127.0.0.1:%d", p))
		}
		return out
	}
	for _, nodes := range [][]string{
		{"http://a:1", "http://b:2", "http://c:3"},
		loopback(33451, 33452, 33453, 33454),
		loopback(40000, 40001, 40002, 40003),
		loopback(8347, 8348, 8349, 8350),
		loopback(35111, 41227, 37003, 45679),
	} {
		r := New(nodes)
		counts := map[string]int{}
		const n = 3000
		for i := 0; i < n; i++ {
			counts[r.Owner(fmt.Sprintf("d%d", i))]++
		}
		for _, node := range nodes {
			c := counts[node]
			// With 64 vnodes the spread should be roughly even; require
			// every node to own at least half its fair share.
			if c < n/(2*len(nodes)) {
				t.Fatalf("node %s owns only %d/%d keys: %v", node, c, n, counts)
			}
		}
	}
}

func TestOwnerStableUnderUnrelatedMembership(t *testing.T) {
	// Consistent hashing: adding a node must only move keys TO the new
	// node, never shuffle ownership between survivors.
	old := New([]string{"http://a:1", "http://b:2"})
	grown := New([]string{"http://a:1", "http://b:2", "http://c:3"})
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("d%d", i)
		before, after := old.Owner(key), grown.Owner(key)
		if before != after {
			moved++
			if after != "http://c:3" {
				t.Fatalf("key %q moved between surviving nodes: %q -> %q", key, before, after)
			}
		}
	}
	if moved == 0 || moved == total {
		t.Fatalf("implausible move count %d/%d after adding a node", moved, total)
	}
}

func TestEmptyAndSingleRing(t *testing.T) {
	if got := (&HashRing{}).Owner("d1"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	if got := New(nil).Owner("d1"); got != "" {
		t.Fatalf("New(nil) Owner = %q, want empty", got)
	}
	solo := New([]string{"http://only:1"})
	for i := 0; i < 50; i++ {
		if got := solo.Owner(fmt.Sprintf("d%d", i)); got != "http://only:1" {
			t.Fatalf("single-node ring Owner = %q", got)
		}
	}
}

func TestNodesSortedDeduplicated(t *testing.T) {
	r := New([]string{"http://b:2", "http://a:1", "http://b:2"})
	nodes := r.Nodes()
	if len(nodes) != 2 || nodes[0] != "http://a:1" || nodes[1] != "http://b:2" {
		t.Fatalf("Nodes() = %v", nodes)
	}
	// Mutating the returned slice must not corrupt the ring.
	nodes[0] = "mutated"
	if r.Nodes()[0] != "http://a:1" {
		t.Fatalf("Nodes() aliases internal state")
	}
}
