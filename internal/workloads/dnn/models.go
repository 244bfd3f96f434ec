package dnn

import (
	"fmt"

	"photon/internal/workloads"
)

// vggConfigs maps depth to the per-stage convolution counts.
var vggConfigs = map[int][]int{
	16: {2, 2, 3, 3, 3},
	19: {2, 2, 4, 4, 4},
}

// vggStageChannels are the real VGG channel widths per stage (scaled by
// Scale.ChannelDiv at build time).
var vggStageChannels = [5]int{64, 128, 256, 512, 512}

// BuildVGG constructs VGG-16 or VGG-19 inference at batch size 1.
// Layer-named launches ("conv1-1", "pool1", "fc6", ...) match Figure 17's
// per-layer breakdown.
func BuildVGG(depth int, sc Scale) (*workloads.App, error) {
	cfg, ok := vggConfigs[depth]
	if !ok {
		return nil, fmt.Errorf("dnn: VGG depth %d not supported (16 or 19)", depth)
	}
	n := NewNet(fmt.Sprintf("VGG-%d", depth), 0x1636+uint64(depth))
	x := n.Input(3, sc.Input, sc.Input, 1)
	for stage, convs := range cfg {
		co := sc.ch(vggStageChannels[stage])
		for c := 0; c < convs; c++ {
			name := fmt.Sprintf("conv%d-%d", stage+1, c+1)
			// Every conv writes a pad-1 tensor (pools read pad-1 inputs via
			// the surplus-halo path), so same-shape stage mates share one
			// program — the repetition kernel-sampling exploits, as in real
			// frameworks where padding belongs to the tensor descriptor,
			// not the kernel.
			x = n.Conv(name, x, co, 3, 1, 1, 1, true)
		}
		poolOutPad := 1
		if stage == len(cfg)-1 {
			poolOutPad = 0 // feeds the classifier
		}
		x = n.MaxPool(fmt.Sprintf("pool%d", stage+1), x, 2, 2, 0, poolOutPad)
	}
	x = n.FC("fc6", x, sc.ch(4096), true)
	x = n.FC("fc7", x, sc.ch(4096), true)
	_ = n.FC("fc8", x, 1000, false)
	return n.App(), nil
}

// resnetConfig describes one ResNet variant.
type resnetConfig struct {
	blocks     [4]int
	bottleneck bool
}

var resnetConfigs = map[int]resnetConfig{
	18:  {blocks: [4]int{2, 2, 2, 2}},
	34:  {blocks: [4]int{3, 4, 6, 3}},
	50:  {blocks: [4]int{3, 4, 6, 3}, bottleneck: true},
	101: {blocks: [4]int{3, 4, 23, 3}, bottleneck: true},
	152: {blocks: [4]int{3, 8, 36, 3}, bottleneck: true},
}

// resnetStageWidths are the real base widths per stage.
var resnetStageWidths = [4]int{64, 128, 256, 512}

// BuildResNet constructs ResNet-{18,34,50,101,152} inference at batch 1.
func BuildResNet(depth int, sc Scale) (*workloads.App, error) {
	cfg, ok := resnetConfigs[depth]
	if !ok {
		return nil, fmt.Errorf("dnn: ResNet depth %d not supported (18/34/50/101/152)", depth)
	}
	n := NewNet(fmt.Sprintf("ResNet-%d", depth), 0x2e5+uint64(depth))
	expansion := 1
	blockInPad := 0 // bottleneck blocks start with a 1x1 (pad 0) conv
	if !cfg.bottleneck {
		blockInPad = 1 // basic blocks start with a 3x3 (pad 1) conv
	} else {
		expansion = 4
	}
	x := n.Input(3, sc.Input, sc.Input, 3)
	x = n.Conv("conv1", x, sc.ch(64), 7, 2, 3, 1, true)
	x = n.MaxPool("pool1", x, 3, 2, 1, blockInPad)
	for stage := 0; stage < 4; stage++ {
		width := sc.ch(resnetStageWidths[stage])
		outC := width * expansion
		for blk := 0; blk < cfg.blocks[stage]; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("res%d-%d", stage+2, blk+1)
			identity := x
			var main Tensor
			if cfg.bottleneck {
				main = n.Conv(prefix+"-a", x, width, 1, 1, 0, 1, true)
				main = n.Conv(prefix+"-b", main, width, 3, stride, 1, 0, true)
				main = n.Conv(prefix+"-c", main, outC, 1, 1, 0, 0, false)
			} else {
				main = n.Conv(prefix+"-a", x, width, 3, stride, 1, 1, true)
				// The builder requires input pad == conv pad, so the first
				// conv produces a pad-1 tensor for the second.
				main = n.Conv(prefix+"-b", main, outC, 3, 1, 1, 0, false)
			}
			if blk == 0 && (stride != 1 || identity.C != outC) {
				identity = n.Conv(prefix+"-down", identity, outC, 1, stride, 0, 0, false)
			}
			x = n.AddReLU(prefix+"-add", main, identity, blockInPad)
		}
	}
	x = n.GlobalAvgPool("gap", x)
	_ = n.FC("fc", x, 1000, false)
	return n.App(), nil
}
