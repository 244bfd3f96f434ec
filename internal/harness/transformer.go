package harness

import (
	"fmt"
	"io"

	"photon/internal/core"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// The transformer accuracy-envelope experiment: modern-ML workloads —
// transformer encoder stacks (attention, softmax, LayerNorm, GEMM) and a
// conv/fc training step (forward + backward + SGD) — compared under
// kernel-sampling alone and full Photon against the full-detailed
// baseline. Transformer traffic is the extreme case for the
// kernel-sampling tier: every layer re-launches byte-identical programs,
// so the stability detector should collapse most of the stack onto the
// first layer's measurements. With Options.Accuracy set, RunSweep emits
// the per-kernel ledger this experiment's error envelopes are read from.

// transformerQuick is the quick-mode stack: a 64-wide toy, not the
// catalog's transformer, though at two layers it prints the same Xfmr-L2
// label (the committed goldens pin that row).
func transformerQuick() dnn.TransformerConfig {
	return dnn.TransformerConfig{Layers: 2, Heads: 2, DModel: 64, SeqLen: 32}
}

// transformerPoints enumerates the experiment's sweep cells. All but the
// quick toy stack and the single encoder block are catalog workloads.
func transformerPoints(o Options) ([]Point, error) {
	if o.Quick {
		cfg := transformerQuick()
		return []Point{
			{Bench: fmt.Sprintf("Xfmr-L%d", cfg.Layers), Size: cfg.Layers,
				Build: func() (*workloads.App, error) { return dnn.BuildTransformer(cfg) }},
			trainStep.Point(2, o.DNNScale),
		}, nil
	}
	block, err := dnn.ScaledTransformer(1, o.DNNScale)
	if err != nil {
		return nil, err
	}
	return []Point{
		{Bench: "Xfmr-block", Size: 1,
			Build: func() (*workloads.App, error) { return dnn.BuildTransformerBlock(block) }},
		transformer.Point(4, o.DNNScale),
		trainStep.Point(4, o.DNNScale),
	}, nil
}

// TransformerEnvelope runs the modern-ML accuracy envelope: sampled vs
// full-detailed on transformer stacks and the training step.
func TransformerEnvelope(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Transformer & training-step accuracy envelope — kernel-sampling vs Photon (R9 Nano)")
	PrintHeader(w)
	pts, err := transformerPoints(o)
	if err != nil {
		return err
	}
	if o.Quick {
		// One label, one app (see BaselineKey): the toy stack's Xfmr-L2
		// baseline must never answer for the catalog's, so the quick sweep
		// keeps its baselines in a sweep-private cache.
		o.Baselines = nil
	}
	return o.RunSweep(w, Sweep{
		Experiment: "transformer",
		Config:     gpu.R9Nano(),
		Factories: []RunnerFactory{
			PhotonFactory("kernel-sampling", o.Params, core.Levels{Kernel: true}),
			PhotonFactory("photon", o.Params, core.AllLevels()),
		},
		Points: pts,
	})
}
