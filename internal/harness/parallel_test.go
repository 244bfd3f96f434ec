package harness

// Tests for the parallel experiment engine pieces: the shared baseline
// cache, the concurrency-safe JSON sink, and the determinism guarantee that
// a sweep's output is byte-identical for any worker count.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"photon/internal/obs"
	"photon/internal/workloads"
)

func TestBaselineCacheSimulatesOnce(t *testing.T) {
	cache := NewBaselineCache()
	cfg := testGPU()
	var builds atomic.Int32
	build := func() (*workloads.App, error) {
		builds.Add(1)
		return workloads.BuildFIR(384)
	}
	key := BaselineKey{Config: cfg.Name, Bench: "FIR", Size: 384}

	const callers = 8
	results := make([]AppResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cache.FullCtx(context.Background(), key, cfg, build)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("baseline built %d times, want 1", got)
	}
	if cache.Simulated() != 1 || cache.Hits() != callers-1 {
		t.Fatalf("simulated=%d hits=%d, want 1 and %d", cache.Simulated(), cache.Hits(), callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].KernelTime != results[0].KernelTime || results[i].Insts != results[0].Insts {
			t.Fatalf("caller %d saw a different baseline: %+v vs %+v", i, results[i], results[0])
		}
	}
	if results[0].KernelTime == 0 {
		t.Fatal("baseline simulated nothing")
	}

	// A different key is a separate simulation.
	key2 := key
	key2.Size = 768
	if _, err := cache.FullCtx(context.Background(), key2, cfg, func() (*workloads.App, error) { return workloads.BuildFIR(768) }); err != nil {
		t.Fatal(err)
	}
	if cache.Simulated() != 2 {
		t.Fatalf("simulated=%d after second key, want 2", cache.Simulated())
	}
}

func TestBaselineCacheNil(t *testing.T) {
	var cache *BaselineCache
	res, err := cache.FullCtx(context.Background(), BaselineKey{}, testGPU(), func() (*workloads.App, error) {
		return workloads.BuildFIR(384)
	})
	if err != nil || res.KernelTime == 0 {
		t.Fatalf("nil cache should run uncached: res=%+v err=%v", res, err)
	}
	if cache.Simulated() != 0 || cache.Hits() != 0 {
		t.Fatal("nil cache counters should be zero")
	}
}

func TestBaselineCachePropagatesErrors(t *testing.T) {
	cache := NewBaselineCache()
	boom := errors.New("build failed")
	key := BaselineKey{Bench: "broken"}
	for i := 0; i < 2; i++ {
		_, err := cache.FullCtx(context.Background(), key, testGPU(), func() (*workloads.App, error) { return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
}

// TestJSONSinkConcurrentEmit hammers one sink from many goroutines; under
// -race this doubles as the data-race check, and the decoded record count
// proves no line was torn or lost.
func TestJSONSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := sink.Emit(Record{
					Experiment: "race",
					Bench:      fmt.Sprintf("b%d", g),
					Size:       i,
					Runner:     "photon",
					PerKernel:  []KernelRecordJSON{{Name: "k", Mode: "full"}},
				}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	recs, err := ReadJSONLines[Record](&buf)
	if err != nil {
		t.Fatalf("concurrent emission corrupted the stream: %v", err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("decoded %d records, want %d", len(recs), goroutines*perG)
	}
	perBench := map[string]int{}
	for _, r := range recs {
		perBench[r.Bench]++
	}
	for g := 0; g < goroutines; g++ {
		if perBench[fmt.Sprintf("b%d", g)] != perG {
			t.Fatalf("per-goroutine counts wrong: %v", perBench)
		}
	}
}

// detSweep is a small but non-trivial plan: two points, two sampled runners,
// so 6 jobs contend for workers.
func detSweep(o Options) Sweep {
	return Sweep{
		Experiment: "det",
		Config:     testGPU(),
		Factories:  o.factories("pka", "photon"),
		Points: []Point{
			{Bench: "FIR", Size: 384, Build: func() (*workloads.App, error) { return workloads.BuildFIR(384) }},
			{Bench: "SPMV", Size: 256, Build: func() (*workloads.App, error) { return workloads.BuildSPMV(256) }},
		},
	}
}

func runDetSweep(t *testing.T, parallel int) (string, []Record, *BaselineCache) {
	t.Helper()
	var text, jsonBuf bytes.Buffer
	o := DefaultOptions()
	o.Parallel = parallel
	o.FixedWall = true
	o.JSON = NewJSONSink(&jsonBuf)
	o.Baselines = NewBaselineCache()
	if err := o.RunSweep(&text, detSweep(o)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONLines[Record](&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	return text.String(), recs, o.Baselines
}

// TestSweepDeterministicAcrossWorkerCounts is the engine's core guarantee:
// a sweep run serially and with 8 workers produces byte-identical text and
// identical JSON records, and each baseline is simulated exactly once.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	text1, recs1, cache1 := runDetSweep(t, 1)
	text8, recs8, cache8 := runDetSweep(t, 8)

	if text1 != text8 {
		t.Fatalf("text output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s", text1, text8)
	}
	if !reflect.DeepEqual(recs1, recs8) {
		t.Fatalf("JSON records differ:\nserial:   %+v\nparallel: %+v", recs1, recs8)
	}
	// 2 points × (1 full + 2 sampled) = 6 rows/records in plan order.
	if len(recs1) != 6 {
		t.Fatalf("got %d records, want 6", len(recs1))
	}
	wantOrder := []string{"full", "pka", "photon", "full", "pka", "photon"}
	for i, r := range recs1 {
		if r.Runner != wantOrder[i] {
			t.Fatalf("record %d runner = %s, want %s (plan order)", i, r.Runner, wantOrder[i])
		}
	}
	for _, c := range []*BaselineCache{cache1, cache8} {
		if c.Simulated() != 2 {
			t.Fatalf("baselines simulated %d times, want 2 (one per point)", c.Simulated())
		}
		// full row + 2 factory jobs per point hit the cache after the miss.
		if c.Hits() != 4 {
			t.Fatalf("cache hits = %d, want 4", c.Hits())
		}
	}
}

// TestSweepPropagatesJobErrors checks the serial-equivalent failure
// semantics at the harness level.
func TestSweepPropagatesJobErrors(t *testing.T) {
	o := DefaultOptions()
	o.Parallel = 4
	boom := errors.New("no such app")
	s := Sweep{
		Experiment: "err",
		Config:     testGPU(),
		Factories:  o.factories("pka"),
		Points: []Point{{
			Bench: "BAD", Size: 1,
			Build: func() (*workloads.App, error) { return nil, boom },
		}},
	}
	var buf bytes.Buffer
	if err := o.RunSweep(&buf, s); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestFig17EmitsRecords covers the Fig17 consistency fix: it must label and
// emit JSON records like every other experiment, including per-layer rows.
func TestFig17EmitsRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a reduced VGG-16 four times")
	}
	var text, jsonBuf, accBuf bytes.Buffer
	o := DefaultOptions()
	o.DNNScale.Input = 32
	o.DNNScale.ChannelDiv = 16
	o.FixedWall = true
	o.JSON = NewJSONSink(&jsonBuf)
	o.Accuracy = NewAccuracySink(&accBuf)
	o.Metrics = obs.NewRegistry()
	if err := Fig17(&text, o); err != nil {
		t.Fatal(err)
	}
	// Fig17 is a sweep like any other: its sampled runs feed the accuracy
	// ledger and the metrics registry.
	ledger, err := ReadJSONLines[AccuracyRecord](&accBuf)
	if err != nil || len(ledger) == 0 || ledger[0].Experiment != "fig17" {
		t.Fatalf("accuracy ledger = %d records, %v; want fig17's sampled kernels", len(ledger), err)
	}
	if n := o.Metrics.Snapshot().SumCounters("photon_insts_detailed_total"); n == 0 {
		t.Fatal("fig17's sampled runs published no photon_* telemetry")
	}
	recs, err := ReadJSONLines[Record](&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (full + 3 variants)", len(recs))
	}
	wantRunners := []string{"full", "kernel", "kernel+warp", "photon"}
	for i, r := range recs {
		if r.Experiment != "fig17" {
			t.Fatalf("record %d experiment = %q, want fig17", i, r.Experiment)
		}
		if r.Runner != wantRunners[i] {
			t.Fatalf("record %d runner = %q, want %q", i, r.Runner, wantRunners[i])
		}
		if r.Bench != "VGG-16" || len(r.PerKernel) == 0 {
			t.Fatalf("record %d missing per-layer rows: %+v", i, r)
		}
		if r.JobWallMS != 1.0 {
			t.Fatalf("record %d job_wall_ms = %v, want the FixedWall pin every sweep record carries", i, r.JobWallMS)
		}
	}
	if !bytes.Contains(text.Bytes(), []byte("whole-inference speedups")) {
		t.Fatal("per-layer text table missing")
	}
}

// TestCheckKeepsRowsLedgerAndTelemetry: the inline audit only reads what a
// kernel left behind, so the same sweep with Check on and off must emit
// byte-identical rows and JSON records, an identical accuracy ledger and
// identical photon_* counters.
func TestCheckKeepsRowsLedgerAndTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	type artifacts struct {
		rows, records, ledger string
		photon                map[string]uint64
	}
	run := func(check bool) artifacts {
		var rows, recs, acc bytes.Buffer
		o := DefaultOptions()
		o.FixedWall = true
		o.Check = check
		o.Metrics = obs.NewRegistry()
		o.JSON = NewJSONSink(&recs)
		o.Accuracy = NewAccuracySink(&acc)
		sweep := detSweep(o)
		sweep.Points = append(sweep.Points, Point{Bench: "ReLU", Size: 8192,
			Build: func() (*workloads.App, error) { return workloads.BuildReLU(8192) }})
		if err := o.RunSweep(&rows, sweep); err != nil {
			t.Fatal(err)
		}
		photon := map[string]uint64{}
		for _, c := range o.Metrics.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "photon_") {
				photon[c.Name] += c.Value
			}
		}
		return artifacts{rows.String(), recs.String(), acc.String(), photon}
	}

	plain, audited := run(false), run(true)
	if plain.ledger == "" || plain.photon["photon_insts_predicted_total"] == 0 {
		t.Fatalf("unaudited run sampled nothing: ledger %q, counters %v", plain.ledger, plain.photon)
	}
	if !reflect.DeepEqual(audited, plain) {
		t.Fatalf("Check changed what the sweep emits:\n--- plain ---\n%+v\n--- audited ---\n%+v", plain, audited)
	}
}
