package main

import (
	"fmt"
	"runtime"
	"strings"

	"photon/internal/obs"
)

// runTraced measures the per-layer metrics: one untraced repetition of the
// simulation phase (the base of every ratio below), the same apps detailed
// with a registry attached and functionally, the fixed-iteration
// micro-drivers, and one repetition of the serve phase with the direct pass
// and the in-process drivers. Spans are recorded around every call.
func (b *bench) runTraced() map[string]sample {
	out := make(map[string]sample)
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	root := b.tr.begin(0, "benchmark."+b.def.Name, "")

	b.traceSim(root, out)
	b.traceMicro(root, out)
	b.traceServe(root, out)

	b.tr.end(root)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	hostMetrics(out, max(b.peakHeap, gc1.HeapInuse), gc1.PauseTotalNs-gc0.PauseTotalNs)
	return out
}

// traceSim fills the workloads, mem, emu, timing, gpu, core, obs and host
// allocation metrics.
func (b *bench) traceSim(root int, out map[string]sample) {
	n := len(b.def.Apps)
	base := b.runSimRep(root, 0, nil)

	// The same apps once more, detailed, with a registry attached: the
	// simulator's own counters, and the price of collecting them.
	reg := obs.NewRegistry()
	traced := make([]simRun, n)
	fn := make([]simRun, n)
	tsp := b.tr.begin(root, "sim.traced_pass", "")
	for i, a := range b.def.Apps {
		traced[i] = b.simulate(tsp, a, modeDetailed, reg, 0)
		if traced[i].err == nil && traced[i].res.KernelTime != base.detailed[i].res.KernelTime {
			traced[i].err = fmt.Errorf("%s: %d sim cycles with a registry attached, %d without",
				a.Name, traced[i].res.KernelTime, base.detailed[i].res.KernelTime)
		}
		b.op(traced[i].err)
	}
	b.tr.end(tsp)

	// A second untraced detailed pass, so the traced one is compared with the
	// mean of its neighbours in time rather than with the process's first,
	// coldest runs.
	post := make([]simRun, n)
	psp := b.tr.begin(root, "sim.untraced_pass", "")
	for i, a := range b.def.Apps {
		post[i] = b.simulate(psp, a, modeDetailed, nil, 0)
		b.op(post[i].err)
	}
	b.tr.end(psp)

	// Functional pass: the floor under every sampled mode. Instructions and
	// wall come from the same call, and must equal the detailed count.
	fsp := b.tr.begin(root, "sim.functional_pass", "")
	for i, a := range b.def.Apps {
		fn[i] = b.simulate(fsp, a, modeFunctional, nil, 0)
		if fn[i].err == nil && fn[i].res.Insts != base.detailed[i].res.Insts {
			fn[i].err = fmt.Errorf("%s: functional run counted %d instructions, detailed %d",
				a.Name, fn[i].res.Insts, base.detailed[i].res.Insts)
		}
		b.op(fn[i].err)
	}
	b.tr.end(fsp)

	detWall, phWall := sumWall(base.detailed), sumWall(base.photon)
	insts, cycles := float64(sumInsts(base.detailed)), float64(sumCycles(base.detailed))
	kinst := insts / 1e3

	kernels, warps := 0, 0
	for _, r := range base.detailed {
		kernels += len(r.res.PerKernel)
		warps += r.warps
	}
	out["workloads.build_s"] = single(sumBuild(base.detailed))
	out["workloads.insts"] = single(insts)
	out["workloads.kernels"] = single(float64(kernels))
	out["workloads.warps"] = single(float64(warps))

	snap := reg.Snapshot()
	rate := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	level := func(l string) float64 {
		lab := obs.L("level", l)
		return rate(snap.SumCounters("sim_cache_hits_total", lab), snap.SumCounters("sim_cache_misses_total", lab))
	}
	dram := snap.SumCounters("sim_dram_accesses_total")
	rowHits := snap.SumCounters("sim_dram_row_hits_total")
	out["mem.l1v_hit_rate"] = single(level("L1V"))
	out["mem.l2_hit_rate"] = single(level("L2"))
	out["mem.dram_accesses_per_kinst"] = single(float64(dram) / kinst)
	out["mem.dram_row_hit_rate"] = single(rate(rowHits, dram-rowHits))

	fnWall, fnInsts := sumWall(fn), float64(sumInsts(fn))
	out["emu.functional_wall_s"] = single(fnWall)
	out["emu.functional_minst_per_s"] = single(fnInsts / fnWall / 1e6)
	out["emu.floor_share"] = single(fnWall / phWall)

	out["timing.sim_cycles"] = single(cycles)
	out["timing.ipc"] = single(insts / cycles)
	out["timing.issue_cycles"] = single(float64(snap.SumCounters("sim_cu_issue_cycles")))
	out["timing.stall_cycles"] = single(float64(snap.SumCounters("sim_cu_stall_cycles")))
	out["timing.host_ns_per_inst"] = single(detWall * 1e9 / insts)
	out["timing.host_ns_per_cycle"] = single(detWall * 1e9 / cycles)

	kernelWall := 0.0
	for _, r := range base.detailed {
		for _, k := range r.res.PerKernel {
			kernelWall += k.Wall.Seconds()
		}
	}
	out["gpu.detailed_minst_per_s"] = single(insts / detWall / 1e6)
	out["gpu.photon_minst_per_s"] = single(float64(sumInsts(base.photon)) / phWall / 1e6)
	out["gpu.launch_overhead_ms"] = single((detWall - kernelWall) * 1e3)

	// Controller: tiers and instruction split from the decision ledger.
	tiers := map[string]float64{}
	var total, detailed, sampled float64
	var bypassDet, bypassPh float64
	for i, r := range base.photon {
		allFull := true
		for _, d := range r.res.Decisions {
			tiers[d.Tier]++
			total += float64(d.Insts)
			detailed += float64(d.DetailedInsts)
			sampled += float64(d.SampledInsts)
			allFull = allFull && d.Tier == "full"
		}
		if allFull {
			bypassDet += base.detailed[i].wall
			bypassPh += r.wall
		}
	}
	out["core.speedup_x"] = single(detWall / phWall)
	out["core.detailed_wall_s"] = single(detWall)
	out["core.photon_wall_s"] = single(phWall)
	// 0 = not defined here: no app of the workload ended with every kernel
	// in tier full.
	overhead := 0.0
	if bypassDet > 0 {
		overhead = bypassPh / bypassDet
	}
	out["core.overhead_x"] = single(overhead)
	out["core.kernels_full"] = single(tiers["full"])
	out["core.kernels_bb"] = single(tiers["bb-sampling"])
	out["core.kernels_warp"] = single(tiers["warp-sampling"])
	out["core.kernels_kernel"] = single(tiers["kernel-sampling"])
	out["core.insts_detailed_share"] = single(detailed / total)
	out["core.insts_sampled_share"] = single(sampled / total)
	out["core.insts_predicted_share"] = single((total - detailed) / total)
	out["core.photon_err_pct"] = single(errPct(base))
	out["core.max_kernel_err_pct"] = single(maxKernelErrPct(base))

	out["obs.traced_over_untraced_x"] = single(sumWall(traced) / ((detWall + sumWall(post)) / 2))

	detAlloc, phAlloc := 0.0, 0.0
	for i := range b.def.Apps {
		detAlloc += base.detailed[i].allocMB
		phAlloc += base.photon[i].allocMB
	}
	out["host.alloc_mb_detailed"] = single(detAlloc)
	out["host.alloc_mb_photon"] = single(phAlloc)
}

// traceMicro runs the fixed-iteration micro-drivers.
func (b *bench) traceMicro(root int, out map[string]sample) {
	sp := b.tr.begin(root, "micro", "")
	defer b.tr.end(sp)

	mev, err := b.microEvent(sp)
	b.op(err)
	out["event.mevents_per_s"] = single(mev)

	stream, gather := b.microMem(sp)
	out["mem.stream_access_ns"] = single(stream)
	out["mem.gather_access_ns"] = single(gather)

	app, err := b.def.Apps[0].Build()
	b.op(err)
	if err == nil {
		out["core.bbv_update_ns"] = single(b.microBBV(sp, app.Launches[0].Program))
	}

	us, err := b.microEngine(sp)
	b.op(err)
	out["harness.engine_dispatch_us"] = single(us)

	us, err = b.microBaseline(sp)
	b.op(err)
	out["harness.baseline_hit_us"] = single(us)

	ns, err := b.microFlight(sp)
	b.op(err)
	out["obs.flight_record_ns"] = single(ns)

	keys, err := catalogue(b.def.Serve)
	b.op(err)
	if err == nil {
		out["cluster.ring_lookup_ns"] = single(b.microRing(sp, keys))
	}

	laned, serial := b.microLaned(sp)
	out["timing.laned1_over_serial_x"] = single(laned / serial)
	out["timing.laned1_wall_s"] = single(laned)
	out["timing.serial_wall_s"] = single(serial)
}

// traceServe runs one repetition of the serve phase and fills the serve and
// cluster metrics.
func (b *bench) traceServe(root int, out map[string]sample) {
	r, err := b.runServeRep(root, 0)
	if err != nil {
		b.op(fmt.Errorf("serve rep: %w", err))
		return
	}
	routed, direct := median(r.warmMS), median(r.directMS)
	out["serve.miss_p50_ms"] = single(median(r.missMS))
	out["serve.hit_p50_ms"] = single(direct)
	out["serve.hit_p99_ms"] = single(percentile(r.directMS, 99))
	out["serve.queue_wait_p50_ms"] = single(median(r.queueWait))
	out["serve.exec_share"] = single(r.execShare)
	out["serve.submit_hit_us"] = single(r.submitHit)
	out["serve.cas_get_us"] = single(r.casGetUS)
	out["serve.cas_put_us"] = single(r.casPutUS)
	for _, name := range []string{"serve.executed", "serve.coalesced", "serve.cache_hits",
		"serve.cas_hits", "serve.cas_puts", "serve.cas_evictions",
		"cluster.federated_hits", "cluster.steals", "cluster.reroutes"} {
		out[name] = single(r.counts[name])
	}
	out["cluster.hop_p50_ms"] = single(routed - direct)
	out["cluster.routed_p50_ms"] = single(routed)
	out["cluster.direct_p50_ms"] = single(direct)
	out["cluster.routed_p99_ms"] = single(percentile(r.warmMS, 99))
}

// hostMetrics describes the machine the numbers were taken on.
func hostMetrics(out map[string]sample, peakHeap uint64, gcPauseNS uint64) {
	out["host.peak_heap_mb"] = single(float64(peakHeap) / (1 << 20))
	out["host.gc_pause_ms"] = single(float64(gcPauseNS) / 1e6)
	out["host.num_cpu"] = single(float64(runtime.NumCPU()))
	out["host.go_version"] = single(goVersionNumber(runtime.Version()))
}

// goVersionNumber folds "go1.24.3" into 12403 so the toolchain fits a metric.
func goVersionNumber(v string) float64 {
	parts := strings.SplitN(strings.TrimPrefix(v, "go"), ".", 3)
	n := 0
	for i := 0; i < 3; i++ {
		x := 0
		if i < len(parts) {
			for _, c := range parts[i] {
				if c < '0' || c > '9' {
					break
				}
				x = x*10 + int(c-'0')
			}
		}
		n = n*100 + x
	}
	return float64(n)
}
