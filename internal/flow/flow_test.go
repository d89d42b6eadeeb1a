package flow

import (
	"sync"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, from, to int, c int64) int {
	t.Helper()
	a, err := g.AddEdge(from, to, c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// minCut solves g at its resting capacities and returns the flow value
// and the arcs of the cut nearest s (nil when the value is infinite).
func minCut(g *Graph, s, t int) (int64, []int) {
	var sv Solver
	res := g.Residual(nil)
	v := sv.MaxFlow(g, res, s, t)
	if v >= InfThreshold {
		return v, nil
	}
	return v, sv.Cut(g, res, s, nil)
}

func TestSimplePath(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 5)
	mustEdge(t, g, 1, 2, 3)
	if got := g.MaxFlow(0, 2); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
}

func TestParallelAndBottleneck(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 2)
	mustEdge(t, g, 0, 2, 2)
	mustEdge(t, g, 1, 3, 1)
	mustEdge(t, g, 2, 3, 5)
	if got := g.MaxFlow(0, 3); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
}

// TestClassicNetwork is the standard CLRS example with max flow 23.
func TestClassicNetwork(t *testing.T) {
	g := NewGraph(6)
	mustEdge(t, g, 0, 1, 16)
	mustEdge(t, g, 0, 2, 13)
	mustEdge(t, g, 1, 3, 12)
	mustEdge(t, g, 2, 1, 4)
	mustEdge(t, g, 2, 4, 14)
	mustEdge(t, g, 3, 2, 9)
	mustEdge(t, g, 3, 5, 20)
	mustEdge(t, g, 4, 3, 7)
	mustEdge(t, g, 4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Fatalf("flow = %d, want 23", got)
	}
}

func TestInfinitePath(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, Inf)
	mustEdge(t, g, 1, 2, Inf)
	got := g.MaxFlow(0, 2)
	if got < InfThreshold {
		t.Fatalf("flow = %d, want >= InfThreshold", got)
	}
}

func TestMinCutMembership(t *testing.T) {
	// Diamond where the min cut is the two unit edges in the middle.
	g := NewGraph(6)
	mustEdge(t, g, 0, 1, Inf)
	mustEdge(t, g, 0, 2, Inf)
	e1 := mustEdge(t, g, 1, 3, 1)
	e2 := mustEdge(t, g, 2, 4, 1)
	mustEdge(t, g, 3, 5, Inf)
	mustEdge(t, g, 4, 5, Inf)
	v, cut := minCut(g, 0, 5)
	if v != 2 {
		t.Fatalf("flow = %d, want 2", v)
	}
	if len(cut) != 2 || cut[0] != e1 || cut[1] != e2 {
		t.Errorf("cut arcs = %v, want [%d %d]", cut, e1, e2)
	}
}

func TestMinCutInfinite(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1, Inf)
	v, cut := minCut(g, 0, 1)
	if v < InfThreshold || cut != nil {
		t.Fatalf("expected infinite cut, got v=%d cut=%v", v, cut)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 4)
	mustEdge(t, g, 2, 3, 4)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Fatalf("flow = %d, want 0", got)
	}
	v, cut := minCut(g, 0, 3)
	if v != 0 || len(cut) != 0 {
		t.Fatalf("mincut = %d/%v, want empty", v, cut)
	}
}

// TestResidualOverride: a solve reads capacities from the residual it
// is handed, so overriding an arc there changes that solve alone, and
// the graph keeps answering at its resting capacities.
func TestResidualOverride(t *testing.T) {
	g := NewGraph(3)
	a := mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 10)
	var sv Solver
	for _, c := range []struct{ cap, want int64 }{{7, 7}, {0, 0}, {Inf, 10}} {
		res := g.Residual(nil)
		res[a] = c.cap
		if got := sv.MaxFlow(g, res, 0, 2); got != c.want {
			t.Fatalf("override %d: flow = %d, want %d", c.cap, got, c.want)
		}
		if got := g.MaxFlow(0, 2); got != 1 {
			t.Fatalf("after override %d: resting flow = %d, want 1", c.cap, got)
		}
	}
}

// TestConcurrentSolves: goroutines solving one graph at once, each with
// its own residual and Solver, all get the answer a lone solve gets.
// Run with -race: a write to the shared graph is a reported race.
func TestConcurrentSolves(t *testing.T) {
	g := NewGraph(6)
	for _, e := range [][3]int64{{0, 1, 16}, {0, 2, 13}, {1, 3, 12}, {2, 1, 4}, {2, 4, 14}, {3, 2, 9}, {3, 5, 20}, {4, 3, 7}, {4, 5, 4}} {
		mustEdge(t, g, int(e[0]), int(e[1]), e[2])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sv Solver
			var res []int64
			for i := 0; i < 50; i++ {
				res = g.Residual(res)
				if got := sv.MaxFlow(g, res, 0, 5); got != 23 {
					t.Errorf("flow = %d, want 23", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRepeatedRunsIndependent(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 4)
	mustEdge(t, g, 1, 2, 4)
	for i := 0; i < 3; i++ {
		if got := g.MaxFlow(0, 2); got != 4 {
			t.Fatalf("run %d: flow = %d, want 4", i, got)
		}
	}
}

func TestAddEdgeRangeError(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddEdge(0, 9, 1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAddVertex(t *testing.T) {
	g := NewGraph(1)
	v := g.AddVertex()
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddVertex = %d, N = %d", v, g.N())
	}
	mustEdge(t, g, 0, v, 2)
	if got := g.MaxFlow(0, v); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := NewGraph(1)
	if got := g.MaxFlow(0, 0); got < InfThreshold {
		t.Fatalf("s==t flow = %d, want infinite", got)
	}
}
