package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"photon/internal/baseline/pka"
	"photon/internal/baseline/tbpoint"
	"photon/internal/core"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// This file holds the harness's three name tables, shared by the one-shot
// CLIs and photon-serve so they always agree on what a name means:
// Experiments (experiment name -> runner), the mode table (mode name ->
// runner, read through ModeNames and FactoryForMode) and Workloads
// (benchmark name -> canonical name, admissible sizes, row label and
// builder). Every experiment entry is a pure function of (w, Options) — all
// cross-run state lives in the caller-supplied Options (baseline cache, JSON
// sink, metrics registry), each of which is individually concurrency-safe —
// so concurrent jobs may run different (or the same) experiments with a
// shared Options.Baselines and never share mutable state beyond it.

// Experiment is one registered experiment: a stable name (the -exp /
// request value) and its runner.
type Experiment struct {
	Name string
	Run  func(w io.Writer, o Options) error
}

// Experiments lists every experiment in presentation order — the order
// photon-bench -exp all prints them.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", func(w io.Writer, o Options) error { Table1(w); return nil }},
		{"table2", func(w io.Writer, o Options) error { Table2(w); return nil }},
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig6", Fig6},
		{"fig8", Fig8},
		{"fig11", Fig11},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"offline", Offline},
		{"waitcnt", WaitcntAblation},
		{"extensions", ExtensionsExperiment},
		{"baselines", Baselines},
		{"transformer", TransformerEnvelope},
	}
}

// FindExperiment resolves a registered experiment by name.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames returns the registered names in presentation order.
func ExperimentNames() []string {
	return names(Experiments(), func(e Experiment) string { return e.Name })
}

// names lists the name of every row of a table, in table order.
func names[T any](rows []T, name func(T) string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = name(r)
	}
	return out
}

// mode is one methodology a run can ask for: its name (photon-sim -mode, a
// request's "modes", a sweep's runner list) and the runner it builds. The
// runner names itself: a mode's rows carry its runner's Name().
type mode struct {
	name string
	new  func(cfg gpu.Config, params core.Params) gpu.Runner
}

// BaselineMode is the mode table's full-detailed baseline: every sweep emits
// its row before the sampled ones, under this label.
const BaselineMode = gpu.TierFull

// modes is the methodology table, baseline first.
var modes = []mode{
	{BaselineMode, func(gpu.Config, core.Params) gpu.Runner { return gpu.FullRunner{} }},
	{"photon", photonMode(core.AllLevels())},
	{"bb", photonMode(core.Levels{BB: true})},
	{"warp", photonMode(core.Levels{Warp: true})},
	{"kernel", photonMode(core.Levels{Kernel: true})},
	{"pka", func(gpu.Config, core.Params) gpu.Runner { return pka.New(pka.DefaultParams()) }},
	{"tbpoint", func(gpu.Config, core.Params) gpu.Runner { return tbpoint.New(tbpoint.DefaultParams()) }},
}

func photonMode(levels core.Levels) func(gpu.Config, core.Params) gpu.Runner {
	return func(cfg gpu.Config, params core.Params) gpu.Runner { return core.MustNew(cfg, params, levels) }
}

// ModeNames returns the mode names in table order — the list every -mode
// help string and the unknown-mode error print.
func ModeNames() []string {
	return names(modes, func(m mode) string { return m.name })
}

// FactoryForMode resolves a mode name into the runner factory a sweep runs;
// the Photon modes take their knobs from params.
func FactoryForMode(name string, params core.Params) (RunnerFactory, error) {
	for _, m := range modes {
		if m.name == name {
			return RunnerFactory{New: func(cfg gpu.Config) gpu.Runner { return m.new(cfg, params) }}, nil
		}
	}
	return RunnerFactory{}, fmt.Errorf("unknown mode %q (want %s)", name, strings.Join(ModeNames(), "|"))
}

// factories resolves the modes an experiment compares. Experiments name
// rows of the table, so an unknown name is a programming error.
func (o Options) factories(modeNames ...string) []RunnerFactory {
	fs := make([]RunnerFactory, len(modeNames))
	for i, name := range modeNames {
		f, err := FactoryForMode(name, o.Params)
		if err != nil {
			panic(err)
		}
		fs[i] = f
	}
	return fs
}

// Workload is one entry of the workload catalog, the table that says what a
// benchmark name means wherever one is accepted: photon-sim -bench,
// photon-ctl submit -bench, a JobRequest's bench, and the experiments that
// name an application rather than sweep a registry.
type Workload struct {
	// Name is the canonical submit name: what serve.Canonicalize stores and
	// what resolves back to this entry. Aliases resolve to it too; lookup is
	// case-insensitive.
	Name    string
	Aliases []string
	// Sizes lists the admissible sizes (a Table 2 or extension benchmark's
	// figure sizes). An entry without a list admits the multiples of Step in
	// [Min, Max]; the fixed-shape DNNs have neither, and their size is
	// always 0. Default is what size 0 means (Sizes[0] for a list).
	Sizes                   []int
	Min, Max, Step, Default int
	// Label is the row label at a size ("PR-64K", "VGG-16", "Xfmr-L2"). A
	// label names exactly one app per size: it is the Bench of BaselineKey.
	Label func(size int) string
	// Build constructs the app at a size. sc scales the DNN shapes: it is
	// dnn.DefaultScale wherever a name is resolved, and Options.DNNScale in
	// the experiments that take their points from the catalog.
	Build func(size int, sc dnn.Scale) (*workloads.App, error)
}

// The hand-listed entries. Table 2 and extension entries are derived from
// the workloads registries, which stay the source for abbreviations, figure
// sizes and builders. The ranges are the service's bounds: 1 Mi PageRank
// nodes is a ~60 MB image, a 12-layer stack is 240 kernels, a 64-sample
// training step 32x the default.
var (
	PageRank = Workload{
		Name: "pr", Aliases: []string{"pagerank"},
		Min: 64, Max: 1 << 20, Step: kernel.WavefrontSize, Default: 64 * 1024,
		Label: func(nodes int) string { return fmt.Sprintf("PR-%dK", nodes/1024) },
		Build: func(nodes int, _ dnn.Scale) (*workloads.App, error) { return workloads.BuildPageRank(nodes) },
	}
	transformer = Workload{
		Name: "transformer", Aliases: []string{"xfmr"},
		Min: 1, Max: 12, Step: 1, Default: 2,
		Label: func(layers int) string { return fmt.Sprintf("Xfmr-L%d", layers) },
		Build: func(layers int, sc dnn.Scale) (*workloads.App, error) {
			cfg, err := dnn.ScaledTransformer(layers, sc)
			if err != nil {
				return nil, err
			}
			return dnn.BuildTransformer(cfg)
		},
	}
	trainStep = Workload{
		Name: "trainstep",
		Min:  1, Max: 64, Step: 1, Default: 2,
		Label: func(batch int) string { return fmt.Sprintf("TrainStep-b%d", batch) },
		Build: func(batch int, _ dnn.Scale) (*workloads.App, error) { return dnn.BuildTrainingStep(batch) },
	}
)

// dnnModel is the entry of a fixed-shape model family at one depth:
// ("resnet", "ResNet", 18) is submitted as resnet18 and printed ResNet-18.
func dnnModel(name, label string, depth int, build func(int, dnn.Scale) (*workloads.App, error)) Workload {
	label = fmt.Sprintf("%s-%d", label, depth)
	return Workload{
		Name:  fmt.Sprintf("%s%d", name, depth),
		Label: func(int) string { return label },
		Build: func(_ int, sc dnn.Scale) (*workloads.App, error) { return build(depth, sc) },
	}
}

func vgg(depth int) Workload { return dnnModel("vgg", "VGG", depth, dnn.BuildVGG) }

// catalog is built once: every submit resolves a name through it.
var catalog = func() []Workload {
	aliases := map[string][]string{"HIST": {"histogram"}, "REDUCE": {"reduction"}}
	var ws []Workload
	for _, spec := range append(workloads.Table2(), workloads.Extensions()...) {
		spec := spec
		ws = append(ws, Workload{
			Name: spec.Abbr, Aliases: aliases[spec.Abbr], Sizes: spec.Sizes, Default: spec.Sizes[0],
			Label: func(int) string { return spec.Abbr },
			Build: func(size int, _ dnn.Scale) (*workloads.App, error) { return spec.Build(size) },
		})
	}
	ws = append(ws, PageRank, vgg(16), vgg(19))
	for _, depth := range []int{18, 34, 50, 101, 152} {
		ws = append(ws, dnnModel("resnet", "ResNet", depth, dnn.BuildResNet))
	}
	return append(ws, transformer, trainStep)
}()

// Workloads returns the workload catalog in presentation order: Table 2,
// the extension workloads, then the real-world and modern-ML applications.
func Workloads() []Workload { return append([]Workload(nil), catalog...) }

// WorkloadNames returns the canonical names in catalog order — the list
// every -bench help string and the unknown-benchmark error print.
func WorkloadNames() []string {
	return names(catalog, func(wl Workload) string { return wl.Name })
}

// FindWorkload resolves a name or alias, case-insensitively.
func FindWorkload(name string) (Workload, error) {
	for _, wl := range catalog {
		if strings.EqualFold(wl.Name, name) || slices.ContainsFunc(wl.Aliases, func(a string) bool { return strings.EqualFold(a, name) }) {
			return wl, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown benchmark %q (want one of %s)", name, strings.Join(WorkloadNames(), ", "))
}

// fixedShape reports an entry with no size axis (the VGG/ResNet models).
func (wl Workload) fixedShape() bool { return wl.Max == 0 && len(wl.Sizes) == 0 }

// Admit resolves a requested size (0 = the default) into an admissible one.
// Only admitted sizes reach a builder from the service, so a request can
// never ask for an unbounded simulation. A fixed-shape entry ignores the
// request.
func (wl Workload) Admit(size int) (int, error) {
	switch {
	case size == 0 || wl.fixedShape():
		return wl.Default, nil
	case slices.Contains(wl.Sizes, size),
		wl.Max > 0 && size >= wl.Min && size <= wl.Max && size%wl.Step == 0:
		return size, nil
	}
	return 0, fmt.Errorf("benchmark %s has no size %d (sizes: %s)", wl.Name, size, wl.sizeSet())
}

// sizeSet describes the admissible sizes for messages.
func (wl Workload) sizeSet() string {
	switch {
	case len(wl.Sizes) > 0:
		return fmt.Sprint(wl.Sizes)
	case wl.Step > 1:
		return fmt.Sprintf("multiples of %d in %d..%d", wl.Step, wl.Min, wl.Max)
	}
	return fmt.Sprintf("%d..%d", wl.Min, wl.Max)
}

// Point is the sweep cell of the workload at size (0 = the default), with
// no admission: experiments and the research CLI own their sizes.
func (wl Workload) Point(size int, sc dnn.Scale) Point {
	if size == 0 {
		size = wl.Default
	}
	return Point{
		Name:  wl.Name,
		Bench: wl.Label(size),
		Size:  size,
		Build: func() (*workloads.App, error) { return wl.Build(size, sc) },
	}
}

// FindBench resolves a benchmark name (any catalog name or alias) and a
// problem size (0 picks the entry's default) into a sweep Point under the
// default DNN scale, admitting only the entry's registered sizes.
func FindBench(bench string, size int) (Point, error) {
	wl, err := FindWorkload(bench)
	if err != nil {
		return Point{}, err
	}
	if size, err = wl.Admit(size); err != nil {
		return Point{}, err
	}
	return wl.Point(size, dnn.DefaultScale()), nil
}

// SimSweep builds the one-point sweep behind a photon-serve single-run job:
// one benchmark cell compared under the given modes (the full baseline row
// is always emitted first, like every sweep). An empty mode list measures
// just the baseline.
func SimSweep(cfg gpu.Config, bench string, size int, modeNames []string, params core.Params) (Sweep, error) {
	pt, err := FindBench(bench, size)
	if err != nil {
		return Sweep{}, err
	}
	var factories []RunnerFactory
	for _, m := range modeNames {
		if m == BaselineMode {
			continue // the baseline row is implicit in every sweep
		}
		f, err := FactoryForMode(m, params)
		if err != nil {
			return Sweep{}, err
		}
		factories = append(factories, f)
	}
	return Sweep{
		Experiment: "sim",
		Config:     cfg,
		Factories:  factories,
		Points:     []Point{pt},
	}, nil
}
