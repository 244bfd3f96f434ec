package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

func TestRingPreferenceCoversAllNodesOnce(t *testing.T) {
	nodes := []string{"node0", "node1", "node2", "node3"}
	r := NewRing(nodes, 8)
	pref := r.Preference("somekey")
	if len(pref) != len(nodes) {
		t.Fatalf("preference has %d entries, want %d: %v", len(pref), len(nodes), pref)
	}
	seen := map[string]bool{}
	for _, n := range pref {
		if seen[n] {
			t.Fatalf("node %s appears twice in preference %v", n, pref)
		}
		seen[n] = true
	}
}

// TestRingMinimalDisruption is the consistent-hashing property that matters
// for failover: when a node dies, only ITS keys move (to their next
// preference), and every other key keeps its owner. The router relies on
// this to make failover deterministic and rebalancing minimal.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"node0", "node1", "node2"}, 0)
	without := NewRing([]string{"node0", "node2"}, 0)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%064x", i)
		was, is := full.Owner(key), without.Owner(key)
		if was != "node1" && was != is {
			t.Fatalf("key %s moved from healthy node %s to %s when node1 left", key, was, is)
		}
		if was == "node1" {
			moved++
			// The dead node's keys must land on their ring successor — the
			// same node the full ring's preference order names next.
			if want := pick(full.Preference(key), "node1"); is != want {
				t.Fatalf("key %s fell to %s, preference order says %s", key, is, want)
			}
		}
	}
	if moved == 0 {
		t.Fatal("node1 owned nothing; distribution test should have caught this")
	}
}

// pick returns the first entry of pref that is not skip.
func pick(pref []string, skip string) string {
	for _, n := range pref {
		if n != skip {
			return n
		}
	}
	return ""
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if r.Owner("key") != "" || len(r.Preference("key")) != 0 {
		t.Fatal("empty ring must own nothing")
	}
}

// refPreference is Preference as it stood before the key hash was hoisted out
// of the search closure and the seen-set became a scan: the reference the
// test below compares against.
func refPreference(r *Ring, key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].pos >= ringHash(key)
	})
	seen := make(map[string]bool, len(r.nodes))
	pref := make([]string, 0, len(r.nodes))
	for i := 0; i < len(r.points) && len(pref) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			pref = append(pref, p.node)
		}
	}
	return pref
}

// TestRingLookupUnchanged pins the ring's answers across the lookup rewrite:
// the benchmark's 32-key serve catalogue keeps, key by key, the owners
// recorded before the change (the benchmark's per-worker expectations rest on
// them), and Preference equals the reference on 1 000 random keys over two-
// and five-node rings.
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
			want := refPreference(r, key)
			if got := r.Preference(key); !slices.Equal(got, want) {
				t.Fatalf("Preference(%s) = %v, reference %v", key, got, want)
			}
			if r.Owner(key) != want[0] {
				t.Fatalf("Owner(%s) = %s, reference %s", key, r.Owner(key), want[0])
			}
		}
	}
}
