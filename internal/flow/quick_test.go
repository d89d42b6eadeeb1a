package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randNet generates a random layered-ish flow network.
type randNet struct {
	N     int
	Edges [][3]int64 // from, to, cap
}

func (randNet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 4 + rng.Intn(6)
	var edges [][3]int64
	m := 5 + rng.Intn(15)
	for i := 0; i < m; i++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		c := int64(1 + rng.Intn(5))
		if rng.Intn(6) == 0 {
			c = Inf
		}
		edges = append(edges, [3]int64{int64(from), int64(to), c})
	}
	return reflect.ValueOf(randNet{N: n, Edges: edges})
}

func (rn randNet) build() *Graph {
	g := NewGraph(rn.N)
	for _, e := range rn.Edges {
		if _, err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			panic(err)
		}
	}
	return g
}

// TestQuickMaxFlowMinCutDuality: the max flow equals the capacity of
// the returned min cut (when finite), and removing the cut really
// disconnects source from target.
func TestQuickMaxFlowMinCutDuality(t *testing.T) {
	f := func(rn randNet) bool {
		g := rn.build()
		v, cut := minCut(g, 0, rn.N-1)
		if v >= InfThreshold {
			return cut == nil
		}
		var capSum int64
		cutSet := make(map[int]bool)
		for _, a := range cut {
			capSum += rn.Edges[a/2][2]
			cutSet[a/2] = true
		}
		if capSum != v {
			return false
		}
		// Reachability without cut edges.
		adj := make([][]int, rn.N)
		for i, e := range rn.Edges {
			if e[2] > 0 && !cutSet[i] {
				adj[e[0]] = append(adj[e[0]], int(e[1]))
			}
		}
		seen := make([]bool, rn.N)
		stack := []int{0}
		seen[0] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return !seen[rn.N-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFlowMonotoneInCapacity: raising one edge's capacity never
// decreases the max flow.
func TestQuickFlowMonotoneInCapacity(t *testing.T) {
	f := func(rn randNet, which uint8) bool {
		if len(rn.Edges) == 0 {
			return true
		}
		g := rn.build()
		before := g.MaxFlow(0, rn.N-1)
		idx := int(which) % len(rn.Edges)
		bumped := rn
		bumped.Edges = append([][3]int64(nil), rn.Edges...)
		if bumped.Edges[idx][2] < InfThreshold {
			bumped.Edges[idx][2] += 3
		}
		g2 := bumped.build()
		after := g2.MaxFlow(0, rn.N-1)
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
