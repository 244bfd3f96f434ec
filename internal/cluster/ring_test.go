package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"photon/internal/serve"
)

func TestRingOwnerIsStable(t *testing.T) {
	r := NewRing([]string{"node0", "node1", "node2"}, 0)
	r2 := NewRing([]string{"node2", "node0", "node1"}, 0) // order-independent
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r.Owner(key) != r2.Owner(key) {
			t.Fatalf("ownership depends on declaration order for %s", key)
		}
		if r.Owner(key) != r.Owner(key) {
			t.Fatalf("ownership not deterministic for %s", key)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	nodes := []string{"node0", "node1"}
	r := NewRing(nodes, 0)
	counts := map[string]int{}
	const keys = 1000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("%064x", i))]++
	}
	for _, n := range nodes {
		// With 64 vnodes per node a 2-node split lands near 50/50; anything
		// beyond 70/30 means the vnode hashing is broken, not just unlucky.
		if counts[n] < keys*30/100 {
			t.Fatalf("lopsided ring: %v", counts)
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing property: when a node
// leaves, only its keys move, and every other key keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"node0", "node1", "node2"}, 0)
	without := NewRing([]string{"node0", "node2"}, 0)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%064x", i)
		was, is := full.Owner(key), without.Owner(key)
		if was == "node1" {
			moved++
		} else if was != is {
			t.Fatalf("key %s moved from %s to %s when node1 left", key, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("node1 owned nothing; distribution test should have caught this")
	}
}

func TestRingEmpty(t *testing.T) {
	if NewRing(nil, 0).Owner("key") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// refOwner finds a key's owner by a linear scan instead of Owner's binary
// search: the first point at or after the key's position, wrapping to the
// first point. The test below compares Owner against it.
func refOwner(r *Ring, key string) string {
	pos := ringHash(key)
	for _, p := range r.points {
		if p.pos >= pos {
			return p.node
		}
	}
	return r.points[0].node
}

// TestRingLookupUnchanged pins Owner: the benchmark's 32-key serve catalogue
// keeps, key by key, its recorded owners (the benchmark's per-worker split
// rests on them), and Owner equals the reference on 1 000 random keys over
// two- and five-node rings.
func TestRingLookupUnchanged(t *testing.T) {
	const recorded = "00000011010001110010101000000110" // owner index per catalogue key
	two := NewRing([]string{"w0", "w1"}, 0)
	got := ""
	for _, c := range []struct {
		bench string
		size  int
	}{{"HIST", 4096}, {"SC", 384}, {"SC", 1024}, {"ReLU", 16384}} {
		for _, arch := range []string{"r9nano", "mi100"} {
			for _, mode := range []string{"photon", "bb", "warp", "pka"} {
				canon, err := serve.Canonicalize(serve.JobRequest{Bench: c.bench, Size: c.size,
					Arch: arch, Modes: []string{mode}, FixedWall: true})
				if err != nil {
					t.Fatal(err)
				}
				got += strings.TrimPrefix(two.Owner(serve.Hash(canon)), "w")
			}
		}
	}
	if got != recorded {
		t.Errorf("catalogue owners\n got %s\nwant %s", got, recorded)
	}

	rng := rand.New(rand.NewSource(1))
	five := NewRing([]string{"a", "b", "c", "d", "e"}, 16)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
		for _, r := range []*Ring{two, five} {
			if got, want := r.Owner(key), refOwner(r, key); got != want {
				t.Fatalf("Owner(%s) = %s, reference %s", key, got, want)
			}
		}
	}
}
