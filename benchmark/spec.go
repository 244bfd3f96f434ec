package main

import (
	"fmt"

	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// metricDef is one row of the metric vocabulary. BENCHMARK.json carries the
// same rows; bench_test.go keeps the two from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median; end-to-end metrics only
}

// runSeconds is the default measuring budget of one run (BENCHMARK.json's
// run_seconds).
const runSeconds = 22

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"detailed_wall_s", "s", "lower", 0.25},
	{"photon_wall_s", "s", "lower", 0.25},
	{"photon_accuracy_pct", "%", "higher", 0.001},
	{"serve_cold_jobs_per_s", "1/s", "higher", 0.25},
	{"serve_warm_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, prefixed by the
// module they measure. They carry no bound.
var perLayer = []metricDef{
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},
	{Name: "workloads.insts", Unit: "count", Better: "lower"},
	{Name: "workloads.kernels", Unit: "count", Better: "lower"},
	{Name: "workloads.warps", Unit: "count", Better: "lower"},

	{Name: "event.mevents_per_s", Unit: "M/s", Better: "higher"},

	{Name: "mem.stream_access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.gather_access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l1v_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_accesses_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "mem.dram_row_hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "emu.functional_wall_s", Unit: "s", Better: "lower"},
	{Name: "emu.functional_minst_per_s", Unit: "M/s", Better: "higher"},
	{Name: "emu.floor_share", Unit: "ratio", Better: "lower"},

	{Name: "timing.sim_cycles", Unit: "cycles", Better: "lower"},
	{Name: "timing.ipc", Unit: "inst/cycle", Better: "higher"},
	{Name: "timing.issue_cycles", Unit: "cycles", Better: "lower"},
	{Name: "timing.stall_cycles", Unit: "cycles", Better: "lower"},
	{Name: "timing.host_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "timing.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "timing.laned1_over_serial_x", Unit: "x", Better: "lower"},
	{Name: "timing.laned1_wall_s", Unit: "s", Better: "lower"},
	{Name: "timing.serial_wall_s", Unit: "s", Better: "lower"},

	{Name: "gpu.detailed_minst_per_s", Unit: "M/s", Better: "higher"},
	{Name: "gpu.photon_minst_per_s", Unit: "M/s", Better: "higher"},
	{Name: "gpu.launch_overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "core.speedup_x", Unit: "x", Better: "higher"},
	{Name: "core.detailed_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.photon_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.overhead_x", Unit: "x", Better: "lower"},
	{Name: "core.kernels_full", Unit: "count", Better: "lower"},
	{Name: "core.kernels_bb", Unit: "count", Better: "higher"},
	{Name: "core.kernels_warp", Unit: "count", Better: "higher"},
	{Name: "core.kernels_kernel", Unit: "count", Better: "higher"},
	{Name: "core.insts_detailed_share", Unit: "ratio", Better: "lower"},
	{Name: "core.insts_sampled_share", Unit: "ratio", Better: "lower"},
	{Name: "core.insts_predicted_share", Unit: "ratio", Better: "higher"},
	{Name: "core.photon_err_pct", Unit: "%", Better: "lower"},
	{Name: "core.max_kernel_err_pct", Unit: "%", Better: "lower"},
	{Name: "core.bbv_update_ns", Unit: "ns", Better: "lower"},

	{Name: "harness.engine_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "harness.baseline_hit_us", Unit: "us", Better: "lower"},

	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.exec_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.cas_get_us", Unit: "us", Better: "lower"},
	{Name: "serve.cas_put_us", Unit: "us", Better: "lower"},
	{Name: "serve.executed", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cas_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cas_puts", Unit: "count", Better: "lower"},
	{Name: "serve.cas_evictions", Unit: "count", Better: "lower"},

	{Name: "cluster.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.routed_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.direct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.routed_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.federated_hits", Unit: "count", Better: "higher"},
	{Name: "cluster.steals", Unit: "count", Better: "lower"},
	{Name: "cluster.reroutes", Unit: "count", Better: "lower"},

	{Name: "obs.traced_over_untraced_x", Unit: "x", Better: "lower"},
	{Name: "obs.flight_record_ns", Unit: "ns", Better: "lower"},

	{Name: "host.alloc_mb_detailed", Unit: "MB", Better: "lower"},
	{Name: "host.alloc_mb_photon", Unit: "MB", Better: "lower"},
	{Name: "host.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.num_cpu", Unit: "count", Better: "higher"},
	{Name: "host.go_version", Unit: "version", Better: "higher"},
}

// appSpec names one simulated application and how to build it. Running an
// app mutates its memory image, so every simulation builds a fresh one.
type appSpec struct {
	Name  string
	Build func() (*workloads.App, error)
	// Atomics marks an app whose kernels are not idempotent. Photon's online
	// analysis executes a sample of workgroups against the live memory image
	// before the real run, so such an app ends a Photon run with a perturbed
	// output and its Check only holds for runs that execute each warp once.
	Atomics bool
}

// cell is one (benchmark, size) point of the served catalogue.
type cell struct {
	Bench string
	Size  int
}

// serveShape sizes the served-request phase of a workload: the key catalogue
// is Cells × Archs × Modes single-cell fixed_wall jobs, a cold pass submits
// every key twice, a warm pass makes WarmTrips submit→status→result round
// trips over them.
type serveShape struct {
	Cells     []cell
	Archs     []string
	Modes     []string
	WarmTrips int
}

// workloadDef is one named workload. Every workload has a simulation phase
// (Apps, run directly under the detailed and Photon runners) and a serve
// phase (Serve, through router → worker → scheduler → CAS), because every
// run must report every metric; what differs is which phase carries the
// weight. A Reps field of 0 means "fill the -seconds budget"; the other
// phase runs its fixed count first.
type workloadDef struct {
	Name      string
	Why       string
	Apps      []appSpec
	SimReps   int
	Serve     serveShape
	ServeReps int
}

func table2(abbr string, size int) appSpec {
	return appSpec{
		Name: fmt.Sprintf("%s/%d", abbr, size),
		Build: func() (*workloads.App, error) {
			s, err := workloads.FindSpec(abbr)
			if err != nil {
				if s, err = workloads.FindExtension(abbr); err != nil {
					return nil, err
				}
			}
			return s.Build(size)
		},
	}
}

// servedCells are the tiny cells the service executes: short enough that a
// cold pass over every key stays near a second, varied enough that the
// catalogue mixes bypassed (HIST, SC) and sampled (ReLU) kernels.
var servedCells = []cell{{"HIST", 4096}, {"SC", 384}, {"SC", 1024}, {"ReLU", 16384}}

// serveProbe is the serve phase of the four simulation workloads: two passes
// over a 16-key catalogue, enough to put a real number behind the serve
// metrics without taking the run away from the simulator. The ring gives
// these keys to the two workers 10/6; the r9nano-only alternative splits
// 14/2 and would leave one worker idle.
var serveProbe = serveShape{
	Cells:     servedCells,
	Archs:     []string{"r9nano", "mi100"},
	Modes:     []string{"photon", "warp"},
	WarmTrips: 2000,
}

// serveMixShape is serve_mix's serve phase: 32 keys, so each of the two
// workers owns about 16 — twice its 8-entry memory cache — and warm hits
// split between the scheduler's done-cache and disk-CAS resurrection.
var serveMixShape = serveShape{
	Cells:     servedCells,
	Archs:     []string{"r9nano", "mi100"},
	Modes:     []string{"photon", "bb", "warp", "pka"},
	WarmTrips: 2000,
}

func servedApps() []appSpec {
	var apps []appSpec
	for _, c := range servedCells {
		a := table2(c.Bench, c.Size)
		a.Atomics = c.Bench == "HIST"
		apps = append(apps, a)
	}
	return apps
}

var workloadDefs = []workloadDef{
	{
		Name:  "dense_compute",
		Why:   "MM/1024 + SC/4096: high-IPC kernels Photon does not sample, so host time is the timing issue path and the event queue",
		Apps:  []appSpec{table2("MM", 1024), table2("SC", 4096)},
		Serve: serveProbe, ServeReps: 2,
	},
	{
		Name:  "mem_irregular",
		Why:   "SPMV/2048: gather-dominated and stall-bound, so the memory hierarchy carries host time; the second bypass workload",
		Apps:  []appSpec{table2("SPMV", 2048)},
		Serve: serveProbe, ServeReps: 2,
	},
	{
		Name:  "stream_sampled",
		Why:   "ReLU/131072 + FIR/16384: warp- and bb-sampling fire, so Photon wall is the detailed prefix plus functional fast-forward and error is non-zero",
		Apps:  []appSpec{table2("ReLU", 131072), table2("FIR", 16384)},
		Serve: serveProbe, ServeReps: 2,
	},
	{
		Name: "multi_kernel",
		Why:  "2-layer transformer (40 kernels) + ResNet-18 (31): kernel-sampling, per-kernel controller work and per-launch set-up dominate",
		Apps: []appSpec{
			{Name: "Xfmr-L2", Build: func() (*workloads.App, error) {
				cfg, err := dnn.ScaledTransformer(2, dnn.DefaultScale())
				if err != nil {
					return nil, err
				}
				return dnn.BuildTransformer(cfg)
			}},
			{Name: "ResNet-18", Build: func() (*workloads.App, error) {
				return dnn.BuildResNet(18, dnn.DefaultScale())
			}},
		},
		Serve: serveProbe, ServeReps: 2,
	},
	{
		Name: "serve_mix",
		Why:  "32 tiny fixed_wall jobs through router, two workers and disk CAS: cold misses and coalesced duplicates, then Zipf warm hits, so serve and cluster layers do nearly everything",
		Apps: servedApps(), SimReps: 5,
		Serve: serveMixShape,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
