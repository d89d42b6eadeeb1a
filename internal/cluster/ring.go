// Package cluster provides the consistent-hash ring that shards
// explanation sessions across querycaused replicas.
//
// Each node in a cluster is identified by its advertised base URL
// (e.g. "http://10.0.0.5:8347"). The ring maps a session ID to the one
// node that owns it; every replica builds the same ring from the same
// membership list, so ownership is agreed upon with no coordination.
// A node that receives a request for a session it does not own either
// 307-redirects the client to the owner or reverse-proxies on its
// behalf (internal/server), and clients that learn the topology from
// GET /v1/cluster route straight to owners.
//
// Membership starts from configuration (the -peers flag) and changes
// at runtime through Versioned: an epoch-numbered Topology installed
// with strictly monotone Apply, minted by Add/Remove on whichever node
// serves the admin request and propagated to the rest. Everything
// above the Ring interface asks only "who owns this key" and "who is
// in the cluster", so a gossip- or lease-backed implementation could
// still slot in without touching the server or client.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring answers ownership questions for a cluster of nodes.
//
// Implementations must be safe for concurrent use and deterministic: two
// rings built from the same membership must agree on every Owner call,
// because replicas and clients each build their own copy.
type Ring interface {
	// Owner returns the node that owns key, or "" for an empty ring.
	Owner(key string) string
	// Nodes returns the member list (deduplicated, sorted).
	Nodes() []string
}

// DefaultVnodes is the number of virtual nodes each member contributes
// to the ring. 64 points per node keeps the key-range spread within a
// few percent of even for small clusters while the ring stays
// tiny (N*64 points).
const DefaultVnodes = 64

// HashRing is a consistent-hash ring with virtual nodes over Hash.
// The zero value is an empty ring; build one with New.
type HashRing struct {
	points []point
	nodes  []string
}

type point struct {
	hash uint64
	node string
}

// New builds a ring over nodes with DefaultVnodes virtual nodes each.
// Duplicate and empty node names are dropped.
func New(nodes []string) *HashRing { return NewWithVnodes(nodes, DefaultVnodes) }

// NewWithVnodes builds a ring with an explicit virtual-node count
// (minimum 1). Higher counts smooth the key-range distribution at the
// cost of a larger (still tiny) sorted point array.
func NewWithVnodes(nodes []string, vnodes int) *HashRing {
	if vnodes < 1 {
		vnodes = 1
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &HashRing{nodes: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: Hash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node name so equal hash points (vanishingly
		// rare) still order deterministically across replicas.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning key: the first ring point clockwise
// from the key's hash. Empty ring returns "".
func (r *HashRing) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node
}

// Nodes returns the deduplicated, sorted member list.
func (r *HashRing) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Hash is the ring's key hash: FNV-1a 64 followed by the murmur3
// fmix64 finalizer. FNV-1a alone barely mixes its last input bytes into
// the high bits, so keys that differ only in a trailing digit — session
// ids d1, d2, … and the vnode labels of nodes whose URLs differ only in
// the port — bunch on a few arcs of the ring and leave some nodes
// almost no keys. Exported so the client and server can hash auxiliary
// keys (e.g. picking an upload node from database content)
// consistently with ring placement. Changing it moves every key, so
// every node of a cluster must run the same Hash.
func Hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb3f97d1a85e3
	k ^= k >> 33
	return k
}
