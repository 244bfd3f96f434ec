package core

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"photon/internal/core/bbv"
	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/stats"
	"photon/internal/workloads"
)

// smallGPU returns a 4-CU configuration so integration tests have far more
// workgroups than resident slots (sampling can only skip queued work).
func smallGPU() gpu.Config {
	const kib = 1024
	return gpu.Config{
		Name:     "test-4cu",
		ClockGHz: 1.0,
		Compute:  timing.DefaultCompute(4),
		Memory: mem.HierarchyConfig{
			NumCUs:            4,
			CUsPerScalarBlock: 4,
			L1V:               mem.CacheConfig{Name: "l1v", SizeBytes: 16 * kib, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
			L1I:               mem.CacheConfig{Name: "l1i", SizeBytes: 32 * kib, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
			L1K:               mem.CacheConfig{Name: "l1k", SizeBytes: 16 * kib, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
			L2:                mem.CacheConfig{Name: "l2", SizeBytes: 256 * kib, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
			L2Banks:           8,
			DRAM:              mem.DRAMConfig{Name: "dram", Banks: 16, Latency: 250, BurstCycles: 8},
		},
		DRAMBytes: 4 << 30,
	}
}

// testParams shrinks the detector windows so sampling can trigger on
// test-sized workloads.
// Windows much below ~256 samples suffer regression attenuation from
// batched retirements (see the detector probe in the commit history), so
// tests shrink the paper's 2048/1024 windows only down to 256.
func testParams() Params {
	p := DefaultParams()
	p.BBWindow = 256
	p.WarpWindow = 256
	p.CheckInterval = 16
	return p
}

func TestAnalyzeOnlineReLU(t *testing.T) {
	app, err := workloads.BuildReLU(512)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := AnalyzeOnline(app.Launches[0], 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if prof.SampledWarps < 5 || prof.SampledWarps > 6 {
		t.Fatalf("sampled %d warps of 512 at 1%%", prof.SampledWarps)
	}
	if len(prof.Types) != 1 {
		t.Fatalf("ReLU has %d warp types, want 1", len(prof.Types))
	}
	if prof.GPU.DominantShare != 1 {
		t.Fatalf("dominant share = %v, want 1", prof.GPU.DominantShare)
	}
	if prof.MeanWarpInsts <= 0 {
		t.Fatal("no instructions recorded")
	}
}

func TestAnalyzeOnlineSPMVIsIrregular(t *testing.T) {
	app, err := workloads.BuildSPMV(64)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := AnalyzeOnline(app.Launches[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Types) < 3 {
		t.Fatalf("SpMV sample has only %d warp types; expected many", len(prof.Types))
	}
	if prof.GPU.DominantShare >= 0.95 {
		t.Fatalf("SpMV dominant share %v; warp-sampling must stay disabled", prof.GPU.DominantShare)
	}
}

func TestProfileBlockShareSumsToOne(t *testing.T) {
	app, err := workloads.BuildFIR(128)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := AnalyzeOnline(app.Launches[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range prof.BlockShare() {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("block shares sum to %v", total)
	}
}

func TestPredictMakespan(t *testing.T) {
	shape := MachineShape{NumCUs: 2, WarpSlotsPer: 4, WarpsPerGroup: 2}
	if got := shape.GroupServers(); got != 4 {
		t.Fatalf("GroupServers = %d, want 4", got)
	}
	// 8 equal groups on 4 servers, no ramp: two waves.
	got := PredictMakespan(100, 100, []float64{10, 10, 10, 10, 10, 10, 10, 10}, shape)
	if got != 120 {
		t.Fatalf("makespan = %v, want 120", got)
	}
	if u := UniformMakespan(100, 100, 10, 8, shape); u != got {
		t.Fatalf("UniformMakespan %v != PredictMakespan %v", u, got)
	}
	// Unequal durations, no ramp: greedy packs short ones behind the long one.
	got = PredictMakespan(0, 0, []float64{40, 10, 10, 10, 10, 10}, shape)
	if got != 40 {
		t.Fatalf("makespan = %v, want 40", got)
	}
	if PredictMakespan(5, 9, nil, shape) != 9 {
		t.Fatal("empty makespan must return the drain end")
	}
	// Server-availability ramp: servers free at 0, 10, 20, 30; four equal
	// groups of 5 finish at 5, 15, 25, 35.
	got = PredictMakespan(0, 40, []float64{5, 5, 5, 5}, shape)
	if got != 40 { // last server frees at 30, finishes at 35, but drain end is 40
		t.Fatalf("ramped makespan = %v, want 40", got)
	}
	got = PredictMakespan(0, 40, []float64{50, 5, 5, 5}, shape)
	if got != 50 {
		t.Fatalf("ramped makespan = %v, want 50", got)
	}
}

func TestEstimateBlockTime(t *testing.T) {
	b := isa.NewBuilder("blk")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.V(0))
	b.I(isa.OpVFMul, isa.V(2), isa.V(1), isa.V(1))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(4), isa.V(3), isa.V(1))
	b.End()
	p := b.MustBuild()
	cfg := timing.DefaultCompute(4)
	lm := NewLatencyModel(timing.Result{}, cfg, 200)
	got := EstimateBlockTime(p, 0, lm, cfg)
	// vadd(4) + vfmul(4) -> t=8; vload issues at 8 (mem done 208), t=12;
	// waitcnt joins at 208, +1 -> 209; vfadd +4 -> 213; endpgm +1 -> 214.
	if got != 214 {
		t.Fatalf("EstimateBlockTime = %v, want 214", got)
	}
	// With an observed memory latency, the estimate follows the tally.
	var res timing.Result
	res.ClassIssued[isa.FUVectorMem], res.ClassLatSum[isa.FUVectorMem] = 1, 500
	lm2 := NewLatencyModel(res, cfg, 200)
	got2 := EstimateBlockTime(p, 0, lm2, cfg)
	if got2 <= got {
		t.Fatalf("larger observed latency produced smaller estimate: %v <= %v", got2, got)
	}
}

func TestLatencyModelFallbacks(t *testing.T) {
	cfg := timing.DefaultCompute(4)
	lm := NewLatencyModel(timing.Result{}, cfg, 123)
	if lm.Latency(isa.FUVectorMem) != 123 {
		t.Fatal("memory fallback not applied")
	}
	if lm.Latency(isa.FUScalar) != float64(cfg.ExecLatency[isa.FUScalar]) {
		t.Fatal("ALU fallback not applied")
	}
}

// floatLatencyTable is the observer the latency model used to be fed by: a
// float sum and a count per class, one callback per instruction. It
// stays here as the reference the machine's integer tallies are held to.
type floatLatencyTable struct {
	sum   [isa.FUClassCount]float64
	count [isa.FUClassCount]uint64
}

func (t *floatLatencyTable) OnInstIssued(_ event.Time, _ int, _ *emu.Warp, class isa.FUClass, lat event.Time) {
	t.sum[class] += float64(lat)
	t.count[class]++
}

// TestLatencyModelMatchesObservedMeans: on a kernel that mixes scalar,
// vector-ALU, vector-memory, scalar-memory and branch instructions, the
// model built from timing.Result must equal, bit for bit, the per-class mean
// of the latencies an observer sees — and the fallback for a class that
// never issued.
func TestLatencyModelMatchesObservedMeans(t *testing.T) {
	app, err := workloads.BuildSPMV(256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallGPU()
	ref := &floatLatencyTable{}
	res, err := gpu.New(cfg).RunDetailed(app.Launches[0], timing.Observer{InstIssued: ref.OnInstIssued}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLatencyModel(res, cfg.Compute, 123)
	fallback := NewLatencyModel(timing.Result{}, cfg.Compute, 123)
	observed := 0
	for c := isa.FUClass(0); c < isa.FUClassCount; c++ {
		if res.ClassIssued[c] != ref.count[c] {
			t.Errorf("%v: machine counted %d instructions, observer %d", c, res.ClassIssued[c], ref.count[c])
		}
		want := fallback.Latency(c)
		if ref.count[c] > 0 {
			observed++
			want = ref.sum[c] / float64(ref.count[c])
		}
		if got := lm.Latency(c); got != want {
			t.Errorf("%v: Latency = %v, want %v", c, got, want)
		}
	}
	if observed < 4 {
		t.Fatalf("only %d classes issued; the kernel is not mixed enough to test the means", observed)
	}
}

func mkGBBV(slot int, w float64) bbv.GPUBBV {
	var v bbv.Vector
	v[slot] = 1
	return bbv.BuildGPU([]bbv.TypeProfile{{ID: uint64(slot), Count: 1, Vector: v}})
}

func TestHistoryMatchRules(t *testing.T) {
	h := NewHistory(0.05, 64)
	g := mkGBBV(2, 1)
	if _, ok := h.Match(g, 1000, 1e4); ok {
		t.Fatal("empty history matched")
	}
	h.Add(KernelRecord{Name: "a", GPU: g, Warps: 900, Insts: 9e6, SimTime: 1e5})
	h.Add(KernelRecord{Name: "b", GPU: g, Warps: 100, Insts: 1e6, SimTime: 2e4})
	h.Add(KernelRecord{Name: "c", GPU: mkGBBV(9, 1), Warps: 1000, Insts: 9e6, SimTime: 1e5})

	// Closest warp count among BBV matches wins. Records a and b both run
	// 1e4 insts per warp.
	rec, ok := h.Match(g, 950, 1e4)
	if !ok || rec.Name != "a" {
		t.Fatalf("matched %v, want a", rec.Name)
	}
	rec, ok = h.Match(g, 150, 1e4)
	if !ok || rec.Name != "b" {
		t.Fatalf("matched %v, want b", rec.Name)
	}
	// Distant BBV never matches even with exact warp count.
	if _, ok := h.Match(mkGBBV(5, 1), 1000, 1e4); ok {
		t.Fatal("distant BBV matched")
	}
	// A candidate with a wildly different warp count is rejected even when
	// its BBV matches (the 2x warp-ratio guard).
	if _, ok := h.Match(g, 10000, 1e4); ok {
		t.Fatal("4x warp-count mismatch matched")
	}
	// A candidate whose per-warp instruction count diverges is rejected
	// (the frontier-kernel guard).
	if _, ok := h.Match(g, 900, 1e6); ok {
		t.Fatal("100x per-warp inst mismatch matched")
	}
	// Below the CU count, warp counts must be exactly equal.
	h2 := NewHistory(0.05, 64)
	h2.Add(KernelRecord{Name: "small", GPU: g, Warps: 32, Insts: 1e4, SimTime: 1e3})
	if _, ok := h2.Match(g, 33, 312.5); ok {
		t.Fatal("sub-CU-count kernel matched an unequal warp count")
	}
	if rec, ok := h2.Match(g, 32, 312.5); !ok || rec.Name != "small" {
		t.Fatal("sub-CU-count exact match failed")
	}
}

// runBoth runs an app's kernels under full detailed and under the given
// runner on fresh GPU instances, returning total kernel times and the
// sampled runner's per-kernel results.
func runBoth(t *testing.T, build func() *workloads.App, sampled gpu.Runner) (full, pred event.Time, rs []gpu.KernelResult) {
	t.Helper()
	gFull := gpu.New(smallGPU())
	appFull := build()
	for _, l := range appFull.Launches {
		r, err := (gpu.FullRunner{}).RunKernel(gFull, l)
		if err != nil {
			t.Fatal(err)
		}
		full += r.SimTime
	}
	gS := gpu.New(smallGPU())
	appS := build()
	for _, l := range appS.Launches {
		r, err := sampled.RunKernel(gS, l)
		if err != nil {
			t.Fatal(err)
		}
		pred += r.SimTime
		rs = append(rs, r)
	}
	return full, pred, rs
}

func TestPhotonWarpSamplingOnReLU(t *testing.T) {
	build := func() *workloads.App {
		app, err := workloads.BuildReLU(8192)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	ph := MustNew(smallGPU(), testParams(), AllLevels())
	full, pred, rs := runBoth(t, build, ph)
	if rs[0].Mode != TierWarp || !rs[0].Stale {
		t.Fatalf("ReLU ran under %s (stale=%v), want a stale %s result", rs[0].Mode, rs[0].Stale, TierWarp)
	}
	err := stats.AbsErrorPct(float64(full), float64(pred))
	if err > 35 {
		t.Fatalf("ReLU sampling error %.1f%% too high (full=%d pred=%d mode=%s)",
			err, full, pred, rs[0].Mode)
	}
}

func TestPhotonBBSamplingOnSPMV(t *testing.T) {
	build := func() *workloads.App {
		app, err := workloads.BuildSPMV(1024)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	// SPMV's startup transient (cold caches, dispatch burst) looks stable to
	// shallow windows — the paper's deep 2048-entry window exists exactly to
	// ride past such local optima, so this test keeps the BB window large.
	p := testParams()
	p.BBWindow = 1024
	ph := MustNew(smallGPU(), p, Levels{BB: true})
	full, pred, rs := runBoth(t, build, ph)
	if rs[0].Mode != TierBB || rs[0].Stale {
		t.Fatalf("SPMV ran under %s (stale=%v), want an image-exact %s result", rs[0].Mode, rs[0].Stale, TierBB)
	}
	err := stats.AbsErrorPct(float64(full), float64(pred))
	if err > 35 {
		t.Fatalf("SPMV bb-sampling error %.1f%% too high (full=%d pred=%d)", err, full, pred)
	}
}

func TestWarpSamplingDisabledForIrregular(t *testing.T) {
	build := func() *workloads.App {
		app, err := workloads.BuildSPMV(256)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	ph := MustNew(smallGPU(), testParams(), Levels{Warp: true})
	_, _, rs := runBoth(t, build, ph)
	if rs[0].Mode != gpu.TierFull {
		t.Fatalf("warp-sampling ran on an irregular workload (mode=%s)", rs[0].Mode)
	}
}

func TestPhotonKernelSamplingOnPageRank(t *testing.T) {
	build := func() *workloads.App {
		app, err := workloads.BuildPageRank(256 * 64)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	ph := MustNew(smallGPU(), testParams(), Levels{Kernel: true})
	full, pred, rs := runBoth(t, build, ph)
	kernelSampled := 0
	for _, r := range rs {
		if r.Mode == TierKernel {
			kernelSampled++
		}
		if r.Stale {
			t.Fatalf("%s result is stale; kernel-sampling executes every workgroup", r.Mode)
		}
	}
	// 16 launches of 2 alternating kernels: every launch after the first
	// pair should be predicted from history.
	if kernelSampled < 12 {
		t.Fatalf("only %d/%d kernels were kernel-sampled (results=%+v)",
			kernelSampled, len(rs), rs)
	}
	err := stats.AbsErrorPct(float64(full), float64(pred))
	if err > 25 {
		t.Fatalf("PageRank kernel-sampling error %.1f%% (full=%d pred=%d)", err, full, pred)
	}
}

func TestPhotonSkipsDetailedWork(t *testing.T) {
	app, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	ph := MustNew(smallGPU(), testParams(), AllLevels())
	r, err := ph.RunKernel(g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode == gpu.TierFull {
		t.Fatal("no sampling on 4096-warp ReLU")
	}
	if r.DetailedInsts >= r.Insts {
		t.Fatalf("detailed insts %d not less than total %d", r.DetailedInsts, r.Insts)
	}
	if r.Insts == 0 || r.SimTime == 0 {
		t.Fatalf("degenerate result %+v", r)
	}
}

func TestPhotonNameByLevels(t *testing.T) {
	cfg := smallGPU()
	if MustNew(cfg, testParams(), AllLevels()).Name() != "photon" {
		t.Fatal("full-level name wrong")
	}
	if MustNew(cfg, testParams(), Levels{BB: true}).Name() != TierBB {
		t.Fatal("bb-level name wrong")
	}
	if MustNew(cfg, testParams(), Levels{Warp: true}).Name() != TierWarp {
		t.Fatal("warp-level name wrong")
	}
	if MustNew(cfg, testParams(), Levels{Kernel: true}).Name() != TierKernel {
		t.Fatal("kernel-level name wrong")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.SampleFraction = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero sample fraction accepted")
	}
	p = DefaultParams()
	p.Delta = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero delta accepted")
	}
}

func TestEventTimeRounding(t *testing.T) {
	if EventTime(10.4) != 10 || EventTime(10.6) != 11 {
		t.Fatal("rounding wrong")
	}
	if EventTime(-3) != 0 {
		t.Fatal("negative times must clamp to zero")
	}
}

func TestRatioTooFar(t *testing.T) {
	if ratioTooFar(100, 150, 2) {
		t.Fatal("1.5x rejected at limit 2")
	}
	if !ratioTooFar(100, 250, 2) {
		t.Fatal("2.5x accepted at limit 2")
	}
	if !ratioTooFar(100, 40, 2) {
		t.Fatal("inverse ratio not symmetric")
	}
	if !ratioTooFar(0, 10, 2) || !ratioTooFar(10, 0, 2) {
		t.Fatal("non-positive values must be rejected")
	}
}

func TestPhotonMetricsRecorded(t *testing.T) {
	app, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := gpu.New(smallGPU())
	g.SetMetrics(reg)
	ph := MustNew(smallGPU(), testParams(), AllLevels())
	var kernels, insts uint64
	for _, l := range app.Launches {
		r, err := ph.RunKernel(g, l)
		if err != nil {
			t.Fatal(err)
		}
		kernels++
		insts += r.Insts
	}
	snap := reg.Snapshot()
	if got := snap.SumCounters("photon_tier_transitions_total"); got != kernels {
		t.Fatalf("photon_tier_transitions_total = %d, want %d (one per kernel)", got, kernels)
	}
	det := snap.SumCounters("photon_insts_detailed_total")
	prd := snap.SumCounters("photon_insts_predicted_total")
	if det+prd != insts {
		t.Fatalf("detailed (%d) + predicted (%d) = %d, want total insts %d",
			det, prd, det+prd, insts)
	}
	if prd == 0 {
		t.Fatal("sampling triggered on ReLU but photon_insts_predicted_total = 0")
	}
	if snap.SumCounters("photon_insts_sampled_total") == 0 {
		t.Fatal("photon_insts_sampled_total = 0, want online-analysis sample size")
	}
	// The detectors evaluated stability at least once, and the attached GPU
	// published memory-system telemetry during the detailed portion.
	checks := snap.SumCounters("photon_bb_stability_checks_total") +
		snap.SumCounters("photon_warp_stability_checks_total")
	if checks == 0 {
		t.Fatal("no detector stability checks recorded")
	}
	l1v := snap.SumCounters("sim_cache_hits_total", obs.L("level", "L1V")) +
		snap.SumCounters("sim_cache_misses_total", obs.L("level", "L1V"))
	if l1v == 0 {
		t.Fatal("GPU cache telemetry not recorded during Photon detailed phase")
	}
}

// refServerHeap and refPredictMakespan are the container/heap list scheduler
// PredictMakespan used before its typed replace-top heap, kept as the
// reference the production code must match bit for bit.
type refServerHeap []float64

func (h refServerHeap) Len() int           { return len(h) }
func (h refServerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refServerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refServerHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *refServerHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

func refPredictMakespan(rampStart, rampEnd float64, groupDurations []float64, shape MachineShape) float64 {
	if len(groupDurations) == 0 {
		return rampEnd
	}
	if rampEnd < rampStart {
		rampEnd = rampStart
	}
	servers := shape.GroupServers()
	h := make(refServerHeap, servers)
	for i := range h {
		h[i] = rampStart + (rampEnd-rampStart)*float64(i)/float64(servers)
	}
	heap.Init(&h)
	end := rampEnd
	for _, d := range groupDurations {
		t := heap.Pop(&h).(float64)
		done := t + d
		if done > end {
			end = done
		}
		heap.Push(&h, done)
	}
	return end
}

// TestMakespanMatchesContainerHeap checks PredictMakespan and
// UniformMakespan against the reference on randomized shapes, ramps and
// durations, comparing float64 bits.
func TestMakespanMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		shape := MachineShape{NumCUs: 1 + r.Intn(64), WarpSlotsPer: 1 + r.Intn(40), WarpsPerGroup: 1 + r.Intn(16)}
		start := r.Float64() * 1e6
		end := start + (r.Float64()-0.2)*1e5 // sometimes before start: the clamp
		durations := make([]float64, r.Intn(600))
		scale := math.Pow(10, float64(r.Intn(6)))
		for i := range durations {
			durations[i] = r.Float64() * scale
			if r.Intn(8) == 0 && i > 0 {
				durations[i] = durations[i-1] // ties
			}
		}
		want := refPredictMakespan(start, end, durations, shape)
		if got := PredictMakespan(start, end, durations, shape); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: PredictMakespan = %v, container/heap reference %v", trial, got, want)
		}
		d, n := r.Float64()*scale, r.Intn(3000)
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = d
		}
		want = refPredictMakespan(start, end, uniform, shape)
		if got := UniformMakespan(start, end, d, n, shape); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: UniformMakespan(%v x %d) = %v, container/heap reference %v", trial, d, n, got, want)
		}
	}
}
