// Package cluster is the serve topology of the repository benchmark
// (benchmark/serve.go): a consistent-hash ring over named photon-serve
// workers and a router that forwards the three calls the benchmark makes —
// submit, status and result — to the worker owning each request's content
// hash. photon-serve ships as one process on one result store; this package
// has no other caller and leaves with the benchmark's serve phase.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring: each node appears as a fixed
// number of virtual points, and a key belongs to the first point at or after
// its own position.
type Ring struct {
	points []ringPoint // sorted by pos, then node
}

type ringPoint struct {
	pos  uint64
	node string
}

// defaultReplicas is the virtual-node count per worker: enough that a
// two-node ring splits the keyspace close to evenly.
const defaultReplicas = 64

// NewRing builds a ring over nodes with the given virtual-node count per
// node (<= 0 picks 64). Node order does not matter; the ring is fully
// determined by the node names.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*replicas)}
	for _, n := range nodes {
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

// Owner returns the node owning key ("" for an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	return r.points[i%len(r.points)].node
}
