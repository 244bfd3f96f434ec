package dnn

import (
	"strings"
	"testing"

	"photon/internal/workloads"
)

func runApp(t *testing.T, app *workloads.App) {
	t.Helper()
	n := &Net{app: app}
	runAll(t, n)
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTransformerBlockMatchesHost(t *testing.T) {
	app, err := BuildTransformerBlock(TransformerConfig{Heads: 2, DModel: 32, SeqLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, app)
}

func TestTransformerMultiLayerMatchesHost(t *testing.T) {
	app, err := BuildTransformer(TransformerConfig{Layers: 2, Heads: 2, DModel: 32, SeqLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, app)
}

// Repeated layers and heads must share programs pointer-identically — that
// equality is what makes their kernels byte-identical launches for the
// kernel-sampling tier.
func TestTransformerLayersSharePrograms(t *testing.T) {
	app, err := BuildTransformer(TransformerConfig{Layers: 3, Heads: 2, DModel: 32, SeqLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	bySuffix := make(map[string]map[interface{}]bool)
	for _, l := range app.Launches {
		i := strings.Index(l.Name, ".")
		suffix := l.Name[i+1:]
		if bySuffix[suffix] == nil {
			bySuffix[suffix] = make(map[interface{}]bool)
		}
		bySuffix[suffix][l.Program] = true
	}
	for suffix, progs := range bySuffix {
		if len(progs) != 1 {
			t.Errorf("kernel role %q uses %d distinct programs, want 1", suffix, len(progs))
		}
	}
	if len(bySuffix) == 0 {
		t.Fatal("no launches")
	}
}

func TestTransformerConfigValidation(t *testing.T) {
	bad := []TransformerConfig{
		{Layers: 1, Heads: 3, DModel: 32, SeqLen: 16},  // heads don't divide
		{Layers: 1, Heads: 1, DModel: 128, SeqLen: 16}, // head dim > wavefront
		{Layers: 1, Heads: 2, DModel: 48, SeqLen: 16},  // d_model not pow2
		{Layers: 1, Heads: 2, DModel: 32, SeqLen: 24},  // seq not pow2
		{Layers: 1, Heads: 2, DModel: 32, SeqLen: 512}, // seq too large
		{Layers: 0, Heads: 2, DModel: 32, SeqLen: 16},  // no layers
	}
	for _, cfg := range bad {
		if _, err := BuildTransformer(cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
}

func TestTrainingStepMatchesHost(t *testing.T) {
	app, err := BuildTrainingStep(2)
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, app)
}

// An image whose inputs differ from the seed's must fail the training
// step's Check even though every kernel computed consistently from it: the
// Check regenerates the input batch and the loss gradient instead of
// reading them back.
func TestTrainingStepCheckRegeneratesInputs(t *testing.T) {
	for _, tc := range []struct {
		launch string
		off    uint64 // byte offset of a logical element of the launch's Args[0]
	}{
		{"conv1", 4 * (10 + 1)}, // the input batch: 8x8 rows with a 1-pixel halo
		{"fc.bwd.dx", 0},        // dY
	} {
		app, err := BuildTrainingStep(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range app.Launches {
			if l.Name == tc.launch {
				addr := uint64(l.Args[0]) + tc.off
				app.Mem.WriteF32(addr, app.Mem.ReadF32(addr)+1)
			}
		}
		runAll(t, &Net{app: app})
		if err := app.Check(); err == nil {
			t.Errorf("%s: a changed input passed the Check", tc.launch)
		}
	}
}

func TestTrainingStepBatch1MatchesHost(t *testing.T) {
	app, err := BuildTrainingStep(1)
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, app)
}

func TestBatchedConvPoolFCMatchHost(t *testing.T) {
	n := NewNet("batched", 7)
	in := n.InputBatch(2, 4, 8, 8, 1)
	c1 := n.Conv("conv", in, 8, 3, 1, 1, 1, true)
	w1 := uint64(lastLaunch(n).Args[1])
	cs := ConvSpec{CI: 4, CO: 8, IH: 8, IW: 8, K: 3, Stride: 1, Pad: 1, OutPad: 1, ReLU: true}
	p1 := n.MaxPool("pool", c1, 2, 2, 0, 0)
	f1 := n.FC("fc", p1, 32, false)
	wf := uint64(lastLaunch(n).Args[1])
	bf := uint64(lastLaunch(n).Args[3])
	ws := n.Mem().ReadFloats(w1, 8*4*9)
	wfs := n.Mem().ReadFloats(wf, 8*4*4*32)
	bfs := n.Mem().ReadFloats(bf, 32)
	runAll(t, n)
	if err := checkConvFwd(n.Mem(), "conv", cs, in, n.initialInput(in), ws, c1); err != nil {
		t.Fatal(err)
	}
	// Host max-pool replay: (ky, kx) order over the padded image.
	cb := n.Mem().ReadFloats(c1.Base, c1.words())
	pb := n.Mem().ReadFloats(p1.Base, p1.words())
	for b := 0; b < 2; b++ {
		for c := 0; c < p1.C; c++ {
			for y := 0; y < p1.H; y++ {
				for x := 0; x < p1.W; x++ {
					want := f32max(hostGet(cb, c1, b, c, 2*y, 2*x), hostGet(cb, c1, b, c, 2*y, 2*x+1))
					want = f32max(want, hostGet(cb, c1, b, c, 2*y+1, 2*x))
					want = f32max(want, hostGet(cb, c1, b, c, 2*y+1, 2*x+1))
					if got := hostGet(pb, p1, b, c, y, x); got != want {
						t.Fatalf("pool[%d][%d][%d][%d] = %v, want %v", b, c, y, x, got, want)
					}
				}
			}
		}
	}
	if err := checkFCFwd(n.Mem(), "fc", p1, wfs, bfs, f1); err != nil {
		t.Fatal(err)
	}
}

// Batch-1 nets must keep their pre-batching program keys and bytes: the
// committed goldens pin them.
func TestBatchOneProgramsUnchanged(t *testing.T) {
	if k := batchKey(1); k != "" {
		t.Fatalf("batchKey(1) = %q, want empty", k)
	}
	n1 := NewNet("a", 3)
	in1 := n1.Input(4, 8, 8, 1)
	n1.Conv("conv", in1, 8, 3, 1, 1, 0, true)
	nb := NewNet("b", 3)
	inb := nb.InputBatch(1, 4, 8, 8, 1)
	nb.Conv("conv", inb, 8, 3, 1, 1, 0, true)
	a, b := n1.App().Launches[0].Program, nb.App().Launches[0].Program
	if len(a.Insts) != len(b.Insts) {
		t.Fatalf("batch-1 conv program differs from pre-batching one: %d vs %d insts",
			len(a.Insts), len(b.Insts))
	}
}

// TestScaleChannelWidthsPinned pins the ch() mapping the committed goldens
// were produced with (see minScaledChannels in net.go). If this test fails,
// every golden that encodes scaled CNN shapes must be regenerated.
func TestScaleChannelWidthsPinned(t *testing.T) {
	def := DefaultScale()
	pinned := map[int]int{16: 8, 64: 16, 128: 32, 256: 64, 512: 128}
	for c, want := range pinned {
		if got := def.ch(c); got != want {
			t.Errorf("DefaultScale.ch(%d) = %d, want %d (golden shape contract)", c, got, want)
		}
	}
	// The floor engages below minScaledChannels*ChannelDiv — and that is
	// exactly why ratio-sensitive widths must use ChExact instead.
	agg := Scale{Input: 32, ChannelDiv: 16}
	if got := agg.ch(64); got != minScaledChannels {
		t.Errorf("aggressive ch(64) = %d, want floor %d", got, minScaledChannels)
	}
}

func TestChExact(t *testing.T) {
	s := Scale{Input: 64, ChannelDiv: 4}
	if got, err := s.ChExact("w", 512); err != nil || got != 128 {
		t.Fatalf("ChExact(512) = %d, %v", got, err)
	}
	if _, err := s.ChExact("w", 66); err == nil {
		t.Fatal("ChExact(66) with div 4: expected error")
	}
	if _, err := (Scale{ChannelDiv: 128}).ChExact("w", 64); err == nil {
		t.Fatal("ChExact(64) with div 128: expected error (would floor to 0)")
	}
	if _, err := (Scale{ChannelDiv: 0}).ChExact("w", 64); err == nil {
		t.Fatal("ChExact with div 0: expected error")
	}
}

func TestScaledTransformer(t *testing.T) {
	cfg, err := ScaledTransformer(2, DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DModel != 128 || cfg.Heads != 4 || cfg.SeqLen != 64 || cfg.headDim() != 32 {
		t.Fatalf("unexpected scaled config %+v", cfg)
	}
	if _, err := ScaledTransformer(2, Scale{Input: 64, ChannelDiv: 3}); err == nil {
		t.Fatal("non-exact channel division: expected error")
	}
}
