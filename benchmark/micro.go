package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"photon/internal/core/bbv"
	"photon/internal/harness"
	"photon/internal/harness/engine"
	"photon/internal/obs"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/workloads"
)

// microSizes are the fixed iteration counts of the micro-drivers. Every
// driver runs its count once — no ramp-up rounds — and divides the work that
// same call reports by that call's wall, so nothing counted outside the
// timer can leak into a rate.
type microSizes struct {
	eventRounds  int
	memAccesses  int
	bbvIters     int
	engineTasks  int
	baselineHits int
	flightEvents int
	ringLookups  int
	submitHits   int
	casPuts      int
	casGets      int
	lanedPairs   int
}

var fullSizes = microSizes{
	eventRounds:  200_000,
	memAccesses:  200_000,
	bbvIters:     200_000,
	engineTasks:  10_000,
	baselineHits: 20_000,
	flightEvents: 1_000_000,
	ringLookups:  200_000,
	submitHits:   2_000,
	casPuts:      100,
	casGets:      2_000,
	lanedPairs:   3,
}

// Sinks keep micro-driver results alive so the compiler cannot drop the
// measured calls.
var (
	sinkVector bbv.Vector
	sinkID     uint64
	sinkTime   event.Time
	sinkString string
)

// timed runs f once with the heap collected first and returns its wall.
func (b *bench) timed(parent int, name string, f func()) time.Duration {
	runtime.GC()
	sp := b.tr.begin(parent, name, "")
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b.tr.end(sp)
	return d
}

// eventRoundEvents is what one round of the event driver schedules: 64 near
// events, 8 far completions and 64 re-entrant re-schedules — the mix the
// timing model produces.
const eventRoundEvents = 64 + 8 + 64

// microEvent returns the event engine's throughput in million events per
// second, counting the events the engine itself reports processed.
func (b *bench) microEvent(parent int) (float64, error) {
	eng := event.New()
	budget := 0
	var h event.Handler
	h = func(event.Time) {
		if budget > 0 {
			budget--
			eng.After(4, h)
		}
	}
	d := b.timed(parent, "event.run", func() {
		for i := 0; i < b.sizes.eventRounds; i++ {
			budget = 64
			for j := 0; j < 64; j++ {
				eng.After(event.Time(j%8+1), h)
				if j%8 == 0 {
					eng.After(event.Time(300+j), h)
				}
			}
			sinkTime = eng.Run()
		}
	})
	processed := eng.Processed()
	if want := uint64(b.sizes.eventRounds) * eventRoundEvents; processed != want {
		return 0, fmt.Errorf("event driver: engine processed %d events, schedule holds %d", processed, want)
	}
	return float64(processed) / d.Seconds() / 1e6, nil
}

// microMem times Hierarchy.VectorAccess on the R9 Nano hierarchy: a
// coalesced stream walking 4× the L2 capacity, and a seeded 64-lane gather
// over the same range.
func (b *bench) microMem(parent int) (streamNS, gatherNS float64) {
	cfg := gpu.R9Nano()
	span := 4 * uint64(cfg.Memory.L2.SizeBytes) * uint64(cfg.Memory.L2Banks)
	n := b.sizes.memAccesses

	h := gpu.New(cfg).Hierarchy()
	var addrs [kernel.WavefrontSize]uint64
	d := b.timed(parent, "mem.stream", func() {
		now := event.Time(0)
		for i := 0; i < n; i++ {
			base := uint64(i) * 256 % span
			for l := range addrs {
				addrs[l] = base + uint64(l*4)
			}
			sinkTime = h.VectorAccess(now, i%cfg.Memory.NumCUs, addrs[:], i%4 == 0)
			now += 4
		}
	})
	streamNS = float64(d.Nanoseconds()) / float64(n)

	// The gather's address vectors are drawn before the timer starts.
	rng := rand.New(rand.NewSource(b.seed))
	pool := make([][kernel.WavefrontSize]uint64, 1024)
	for i := range pool {
		for l := range pool[i] {
			pool[i][l] = rng.Uint64() % span &^ 3
		}
	}
	h = gpu.New(cfg).Hierarchy()
	d = b.timed(parent, "mem.gather", func() {
		now := event.Time(0)
		for i := 0; i < n; i++ {
			sinkTime = h.VectorAccess(now, i%cfg.Memory.NumCUs, pool[i%len(pool)][:], false)
			now += 4
		}
	})
	gatherNS = float64(d.Nanoseconds()) / float64(n)
	return streamNS, gatherNS
}

// microBBV times one warp's feature-vector construction (type hash plus
// projected BBV) on prog, the workload's first kernel.
func (b *bench) microBBV(parent int, prog *isa.Program) float64 {
	counts := make([]uint32, prog.NumBlocks())
	for i := range counts {
		counts[i] = uint32(13*i + 1)
	}
	sinkVector = bbv.FromCounts(prog, counts) // fill the per-program slot cache
	d := b.timed(parent, "core.bbv", func() {
		for i := 0; i < b.sizes.bbvIters; i++ {
			sinkID = bbv.TypeID(prog, counts)
			sinkVector = bbv.FromCounts(prog, counts)
		}
	})
	return float64(d.Nanoseconds()) / float64(b.sizes.bbvIters)
}

// microEngine returns the harness job engine's cost per no-op task, in µs,
// at one worker per CPU.
func (b *bench) microEngine(parent int) (float64, error) {
	tasks := make([]engine.Task[int], b.sizes.engineTasks)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (int, error) { return i, nil }
	}
	emitted := 0
	var err error
	d := b.timed(parent, "harness.engine", func() {
		err = engine.Run(context.Background(), runtime.NumCPU(), tasks, func(int, int) error {
			emitted++
			return nil
		})
	})
	if err == nil && emitted != len(tasks) {
		err = fmt.Errorf("engine driver: %d of %d tasks emitted", emitted, len(tasks))
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(tasks)), err
}

// microBaseline returns the cost of a BaselineCache lookup on a warm key,
// in µs.
func (b *bench) microBaseline(parent int) (float64, error) {
	cache := harness.NewBaselineCache()
	key := harness.BaselineKey{Config: "R9 Nano", Bench: "HIST", Size: 4096}
	build := func() (*workloads.App, error) { return table2("HIST", 4096).Build() }
	ctx := context.Background()
	want, err := cache.FullCtx(ctx, key, gpu.R9Nano(), build)
	if err != nil {
		return 0, err
	}
	d := b.timed(parent, "harness.baseline", func() {
		for i := 0; i < b.sizes.baselineHits && err == nil; i++ {
			var got harness.AppResult
			got, err = cache.FullCtx(ctx, key, gpu.R9Nano(), build)
			if err == nil && got.KernelTime != want.KernelTime {
				err = fmt.Errorf("baseline driver: hit %d returned %d cycles, first run %d", i, got.KernelTime, want.KernelTime)
			}
		}
	})
	if err == nil && cache.Simulated() != 1 {
		err = fmt.Errorf("baseline driver: %d simulations behind one warm key", cache.Simulated())
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(b.sizes.baselineHits), err
}

// microFlight returns the flight recorder's cost per recorded event, in ns.
func (b *bench) microFlight(parent int) (float64, error) {
	f := obs.NewFlightRecorder(1024)
	ev := obs.FlightEvent{Kind: "tier", Tier: "bb-sampling", Msg: "bench-kernel", Value: 1}
	d := b.timed(parent, "obs.flight", func() {
		for i := 0; i < b.sizes.flightEvents; i++ {
			ev.TS = int64(i) + 1 // pre-stamped: time the ring, not time.Now
			f.RecordEvent(ev)
		}
	})
	if f.Total() != uint64(b.sizes.flightEvents) {
		return 0, fmt.Errorf("flight driver: recorder counts %d events of %d", f.Total(), b.sizes.flightEvents)
	}
	return float64(d.Nanoseconds()) / float64(b.sizes.flightEvents), nil
}

// microRing returns the consistent-hash ring's cost per owner lookup, in ns.
func (b *bench) microRing(parent int, keys []servedKey) float64 {
	ring, _ := workerRing()
	d := b.timed(parent, "cluster.ring", func() {
		for i := 0; i < b.sizes.ringLookups; i++ {
			sinkString = ring.Owner(keys[i%len(keys)].hash)
		}
	})
	return float64(d.Nanoseconds()) / float64(b.sizes.ringLookups)
}

// lanedProbe is the fixed app of the laned-engine comparison.
var lanedProbe = table2("MM", 1024)

// microLaned runs MM/1024 detailed on the laned engine at one lane and on
// the serial engine, in alternating pairs, and returns the median wall of
// each. Lanes stay at 1 until a runner with >= 8 cores exists.
func (b *bench) microLaned(parent int) (lanedS, serialS float64) {
	sp := b.tr.begin(parent, "timing.laned_pairs", "")
	defer b.tr.end(sp)
	var laned, serial []float64
	for p := 0; p < b.sizes.lanedPairs; p++ {
		order := [2]int{1, 0}
		if p%2 == 1 {
			order = [2]int{0, 1}
		}
		for _, lanes := range order {
			run := b.simulate(sp, lanedProbe, modeDetailed, nil, lanes)
			b.op(run.err)
			if lanes == 1 {
				laned = append(laned, run.wall)
			} else {
				serial = append(serial, run.wall)
			}
		}
	}
	return median(laned), median(serial)
}
