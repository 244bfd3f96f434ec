package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"photon/internal/obs"
)

func testCAS(t *testing.T, maxBytes int64) (*CAS, string, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := OpenCAS(dir, maxBytes, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir, reg
}

// casOpener opens a fresh, empty store of one backing at the given cap. The
// directory is "" for the memory-backed one.
type casOpener func(t *testing.T, maxBytes int64) (*CAS, string, *obs.Registry)

// eachCAS runs f once per backing of the store: files under a fresh
// directory, and records in memory.
func eachCAS(t *testing.T, f func(t *testing.T, open casOpener)) {
	t.Run("disk", func(t *testing.T) { f(t, testCAS) })
	t.Run("memory", func(t *testing.T) {
		f(t, func(t *testing.T, maxBytes int64) (*CAS, string, *obs.Registry) {
			reg := obs.NewRegistry()
			return NewMemoryCAS(maxBytes, reg, nil), "", reg
		})
	})
}

func casOut(i int) Output {
	return Output{
		Text:     fmt.Sprintf("text-%03d\n", i),
		JSONL:    fmt.Sprintf(`{"i":%d}`+"\n", i%10),
		Accuracy: fmt.Sprintf(`{"acc":%d}`+"\n", i%10),
	}
}

func casHash(i int) string { return fmt.Sprintf("%064x", i) }

// casSlack absorbs the few bytes of record-size variance that come from the
// created_at timestamp's encoding, so size-cap arithmetic in these tests
// stays deterministic.
const casSlack = 64

func TestCASPutGetRoundTrip(t *testing.T) {
	eachCAS(t, func(t *testing.T, open casOpener) {
		c, dir, reg := open(t, 1<<20)
		want := casOut(1)
		c.Put(casHash(1), want)
		got, ok := c.Get(casHash(1))
		if !ok || got != want {
			t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
		}
		if _, ok := c.Get(casHash(2)); ok {
			t.Fatal("Get of unknown hash reported a hit")
		}
		// On disk the entry is a real file named by the hash — that is the
		// CAS contract.
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, casHash(1)+casSuffix)); err != nil {
				t.Fatalf("entry file missing: %v", err)
			}
		}
		if c.Len() != 1 || c.Bytes() <= 0 {
			t.Fatalf("index Len=%d Bytes=%d after one put", c.Len(), c.Bytes())
		}
		snap := reg.Snapshot()
		for name, want := range map[string]uint64{"serve_cas_puts": 1, "serve_cas_hits": 1, "serve_cas_misses": 1} {
			if got := snap.SumCounters(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	})
}

// TestCASEvictionUnderSizeCap fills the store past its byte cap and checks
// that the least-recently-used entry (index AND file) goes first, that a Get
// refreshes recency, and that the just-written entry is never the victim.
func TestCASEvictionUnderSizeCap(t *testing.T) {
	eachCAS(t, func(t *testing.T, open casOpener) {
		// Room for three records and a half: a disk record is several times
		// a memory one, and half of either dwarfs the timestamp variance.
		probe, _, _ := open(t, 1<<20)
		probe.Put(casHash(1), casOut(1))
		cap := 3*probe.Bytes() + probe.Bytes()/2
		c, dir, reg := open(t, cap)
		for i := 1; i <= 3; i++ {
			c.Put(casHash(i), casOut(i))
		}
		if c.Len() != 3 {
			t.Fatalf("Len = %d, want 3 (at cap)", c.Len())
		}
		// Touch 1 so 2 becomes the LRU victim.
		if _, ok := c.Get(casHash(1)); !ok {
			t.Fatal("entry 1 missing before eviction")
		}
		c.Put(casHash(4), casOut(4))
		if _, ok := c.Get(casHash(2)); ok {
			t.Fatal("LRU entry 2 survived eviction")
		}
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, casHash(2)+casSuffix)); !os.IsNotExist(err) {
				t.Fatalf("evicted entry's file still on disk: %v", err)
			}
		}
		for _, i := range []int{1, 3, 4} {
			if _, ok := c.Get(casHash(i)); !ok {
				t.Fatalf("entry %d lost; only the LRU should be evicted", i)
			}
		}
		if got := reg.Snapshot().SumCounters("serve_cas_evictions"); got != 1 {
			t.Fatalf("serve_cas_evictions = %v, want 1", got)
		}
		if c.Bytes() > cap {
			t.Fatalf("Bytes = %d exceeds cap %d after eviction", c.Bytes(), cap)
		}
	})
}

// TestCASCrashRecovery simulates a writer that died mid-Put: a partial
// *.tmp file left next to a good entry. Reopening must delete the leftover,
// keep the intact entry, and never index the partial write.
func TestCASCrashRecovery(t *testing.T) {
	c, dir, _ := testCAS(t, 1<<20)
	c.Put(casHash(1), casOut(1))

	// What a crash between CreateTemp and Rename leaves behind.
	tmp := filepath.Join(dir, casHash(9)+".12345.tmp")
	if err := os.WriteFile(tmp, []byte(`{"hash":"tru`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCAS(dir, 1<<20, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the boot scan: %v", err)
	}
	if got, ok := c2.Get(casHash(1)); !ok || got != casOut(1) {
		t.Fatalf("intact entry lost across crash recovery: %+v %v", got, ok)
	}
	if _, ok := c2.Get(casHash(9)); ok {
		t.Fatal("partial write surfaced as a cache hit")
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d after recovery, want 1", c2.Len())
	}
}

// TestCASCorruptEntryDropped: an entry whose body does not parse (torn by
// something other than our writer, e.g. disk corruption) must read as a
// miss and be dropped from disk, not crash or serve garbage.
func TestCASCorruptEntryDropped(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, casHash(7)+casSuffix)
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c, err := OpenCAS(dir, 1<<20, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(casHash(7)); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed: %v", err)
	}
	if got := reg.Snapshot().SumCounters("serve_cas_errors"); got < 1 {
		t.Fatalf("serve_cas_errors = %v, want >= 1", got)
	}
}

// TestCASIndexRebuildFromScan writes entries through one store, reopens the
// directory cold, and checks the rebuilt index serves every entry and
// recovers the mtime-derived LRU order: the mtime-oldest entry is the first
// eviction victim after the rebuild, even though the in-memory history that
// made it LRU died with the previous process.
func TestCASIndexRebuildFromScan(t *testing.T) {
	c, dir, _ := testCAS(t, 1<<20)
	for i := 1; i <= 4; i++ {
		c.Put(casHash(i), casOut(i))
	}
	entrySize := c.Bytes() / 4

	// Make entry 3 unambiguously the oldest on disk.
	old := filepath.Join(dir, casHash(3)+casSuffix)
	info, err := os.Stat(old)
	if err != nil {
		t.Fatal(err)
	}
	past := info.ModTime().Add(-time.Second)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCAS(dir, 4*entrySize+casSlack, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 4 {
		t.Fatalf("rebuilt Len = %d, want 4", c2.Len())
	}
	// Push past the cap before any Get re-touches mtimes: the victim must be
	// the mtime-oldest entry.
	c2.Put(casHash(5), casOut(5))
	if _, ok := c2.Get(casHash(3)); ok {
		t.Fatal("mtime-oldest entry survived post-rebuild eviction")
	}
	for _, i := range []int{1, 2, 4, 5} {
		if got, ok := c2.Get(casHash(i)); !ok || got != casOut(i) {
			t.Fatalf("entry %d lost or torn in rebuild: %+v %v", i, got, ok)
		}
	}
}

// TestCASConcurrentGetPut hammers one store from many goroutines (run under
// -race in CI) with a cap small enough that evictions happen mid-test.
// Overlapping Puts of the same hash and Gets racing evictions must stay
// torn-free: every hit parses and matches its hash's content.
func TestCASConcurrentGetPut(t *testing.T) {
	eachCAS(t, func(t *testing.T, open casOpener) {
		// Well under 16 records of either backing, so evictions happen
		// mid-test.
		c, _, reg := open(t, 1<<8)
		const (
			workers = 8
			keys    = 16
			iters   = 50
		)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := (w + i) % keys
					if i%2 == 0 {
						c.Put(casHash(k), casOut(k))
					} else if out, ok := c.Get(casHash(k)); ok && out != casOut(k) {
						t.Errorf("worker %d: torn read for key %d: %+v", w, k, out)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if c.Bytes() < 0 {
			t.Fatalf("byte accounting went negative: %d", c.Bytes())
		}
		if reg.Snapshot().SumCounters("serve_cas_evictions") == 0 {
			t.Fatal("no eviction happened: the cap is too loose to race Gets against evictions")
		}
	})
}

// TestCASNilSafe: a nil store is a total no-op.
func TestCASNilSafe(t *testing.T) {
	var c *CAS
	c.Put("h", casOut(1))
	if _, ok := c.Get("h"); ok {
		t.Fatal("nil CAS reported a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil CAS reported entries")
	}
}

// TestSchedulerAnswersFromDiskCASAfterRestart is the restart guarantee end
// to end at the scheduler level: run a job against a store-backed scheduler,
// build a NEW scheduler over the same directory (a restarted worker), and
// submit the same request — it must answer as an instant cache hit without
// ever invoking the executor.
func TestSchedulerAnswersFromDiskCASAfterRestart(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Bench: "mm"}
	want := Output{Text: "mm-output\n", JSONL: `{"bench":"mm"}` + "\n"}

	reg1 := obs.NewRegistry()
	cas1, err := OpenCAS(dir, 1<<20, reg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewScheduler(Config{
		Metrics: reg1,
		Store:   cas1,
		Executor: func(ctx context.Context, r JobRequest, h Hooks) (Output, error) {
			return want, nil
		},
	})
	st, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	// The store is written before the job is observable as done.
	if cas1.Len() != 1 {
		t.Fatalf("done execution not in the store: Len = %d", cas1.Len())
	}

	// "Restart": fresh scheduler, fresh registry, same directory. The
	// executor must never run.
	reg2 := obs.NewRegistry()
	cas2, err := OpenCAS(dir, 1<<20, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewScheduler(Config{
		Metrics: reg2,
		Store:   cas2,
		Executor: func(ctx context.Context, r JobRequest, h Hooks) (Output, error) {
			t.Error("executor ran for a disk-cached request")
			return Output{}, nil
		},
	})
	st2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("restarted submit = %+v, want instant cache hit", st2)
	}
	res, finished, err := s2.Result(st2.ID)
	if err != nil || !finished {
		t.Fatalf("Result: %v finished=%v", err, finished)
	}
	if res.Output != want.Text || res.JSONL != want.JSONL {
		t.Fatalf("restarted result = %+v, want %+v", res, want)
	}
	snap := reg2.Snapshot()
	if got := snap.SumCounters("serve_cas_hits"); got != 1 {
		t.Fatalf("serve_cas_hits = %v, want 1", got)
	}
	if got := snap.SumCounters("serve_jobs_executed"); got != 0 {
		t.Fatalf("restarted scheduler executed a disk-cached job: %v", got)
	}
	if got := snap.SumCounters("serve_cache_hits"); got != 1 {
		t.Fatalf("disk hit must count as a cache hit: %v", got)
	}
	// Every hit is a store hit: there is no second cache in front of it.
	st3, err := s2.Submit(req)
	if err != nil || !st3.CacheHit {
		t.Fatalf("re-hit failed: %+v %v", st3, err)
	}
	if snap := reg2.Snapshot(); snap.SumCounters("serve_cas_hits") != 2 || snap.SumCounters("serve_cache_hits") != 2 {
		t.Fatalf("after two hits: serve_cas_hits = %v, serve_cache_hits = %v, want 2 and 2",
			snap.SumCounters("serve_cas_hits"), snap.SumCounters("serve_cache_hits"))
	}
	// CachedResult is the GET /v1/cache surface; it must see the entry.
	canonical, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := s2.CachedResult(Hash(canonical)); !ok || out.Text != want.Text {
		t.Fatalf("CachedResult = %+v %v", out, ok)
	}
}
