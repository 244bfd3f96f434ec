// Package cluster turns a set of photon-serve workers into one service: a
// consistent-hash router that owns the client-facing API, forwards each job
// to the worker owning its content hash — the node whose result store then
// answers every repeat of it — and fails over when a worker dies, all over
// the same stdlib net/http the single-node daemon uses.
//
// The division of labor: workers keep the entire execution model (scheduler,
// coalescing, CAS, SSE hubs, metrics, job ids); the router holds only soft
// state — a hash ring and per-node health from /readyz. A cluster-scope job
// id names its worker, so a router restart loses nothing.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring: each node appears as Replicas
// virtual points, and a key belongs to the first point at or after its own
// position. Immutability is deliberate — membership is fixed at router
// start, and health-aware rebalancing happens by walking the preference
// order past unhealthy nodes, not by rehashing, so a node bouncing in and
// out of readiness never migrates ownership of the whole keyspace.
type Ring struct {
	points []ringPoint // sorted by pos
	nodes  []string
}

type ringPoint struct {
	pos  uint64
	node string
}

// DefaultReplicas is the virtual-node count per worker: enough that a
// two-node ring splits the keyspace close to evenly.
const DefaultReplicas = 64

// NewRing builds a ring over nodes with the given virtual-node count per
// node (<= 0 picks DefaultReplicas). Node order does not matter; the ring
// is fully determined by the node names.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(nodes)*replicas)
	for _, n := range r.nodes {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{pos: ringHash(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash positions a string on the ring: the first 8 bytes of its SHA-256.
// Job keys are already hex SHA-256 request hashes, but hashing again keeps
// node names and keys in one uniformly-distributed space.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the ring's membership, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key ("" for an empty ring).
func (r *Ring) Owner(key string) string {
	p := r.Preference(key)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Preference returns every node in the order they would assume ownership of
// key: the owner first, then each distinct successor around the ring. The
// router forwards to the first healthy entry, which is what makes failover
// deterministic — every router instance computes the same fallback for the
// same key.
func (r *Ring) Preference(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	pos := ringHash(key) // once: the router does this lookup on every submit
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	pref := make([]string, 0, len(r.nodes))
	for i := 0; i < len(r.points) && len(pref) < len(r.nodes); i++ {
		// pref never holds more than the node count: a scan beats a set.
		if node := r.points[(start+i)%len(r.points)].node; !slices.Contains(pref, node) {
			pref = append(pref, node)
		}
	}
	return pref
}
