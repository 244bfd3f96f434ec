package verify

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// Case is one self-contained differential-test input: a program plus the
// grid and memory-segment geometry it runs with. A Case is deterministic —
// the input segment is filled from Seed — and can be serialized to text
// (Format/ParseCase) so failing programs are committed as regression files
// under testdata/.
type Case struct {
	Name string
	// Seed fills the read-only input segment.
	Seed int64

	NumWorkgroups int
	WarpsPerGroup int

	// InWords sizes the read-only input segment; OutWordsPerWarp sizes each
	// warp's private output segment; AtomicWords sizes the shared segment
	// touched only by commutative atomics. All three must be powers of two
	// (data-dependent addresses are masked into range, so wraparound needs a
	// power-of-two modulus).
	InWords         int
	OutWordsPerWarp int
	AtomicWords     int

	LDSBytes int
	Insts    []isa.Inst

	prog *isa.Program
}

// Segments records where NewLaunch placed the case's buffers.
type Segments struct {
	InBase, OutBase, AtomicBase    uint64
	InWords, OutWords, AtomicWords int
}

// TotalWarps returns the warp count of the case's grid.
func (c *Case) TotalWarps() int { return c.NumWorkgroups * c.WarpsPerGroup }

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func (c *Case) validate() error {
	if c.NumWorkgroups <= 0 || c.WarpsPerGroup <= 0 {
		return fmt.Errorf("verify: case %q: grid %dx%d must be positive",
			c.Name, c.NumWorkgroups, c.WarpsPerGroup)
	}
	if !pow2(c.InWords) || !pow2(c.OutWordsPerWarp) || !pow2(c.AtomicWords) {
		return fmt.Errorf("verify: case %q: segment sizes %d/%d/%d must be powers of two",
			c.Name, c.InWords, c.OutWordsPerWarp, c.AtomicWords)
	}
	// The prologue stores through v2 = outBase + lane*4, so each warp's
	// segment must cover at least one word per lane.
	if c.OutWordsPerWarp < kernel.WavefrontSize {
		return fmt.Errorf("verify: case %q: output segment of %d words is smaller than a wavefront",
			c.Name, c.OutWordsPerWarp)
	}
	if c.LDSBytes < 0 {
		return fmt.Errorf("verify: case %q: negative LDS size", c.Name)
	}
	return nil
}

// Program builds (once) and returns the case's compiled program.
func (c *Case) Program() (*isa.Program, error) {
	if c.prog != nil {
		return c.prog, nil
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	// NewProgram stamps PCs into the slice, so hand it a copy to keep the
	// case's Insts canonical.
	p, err := isa.NewProgram(c.Name, append([]isa.Inst(nil), c.Insts...), c.LDSBytes)
	if err != nil {
		return nil, err
	}
	c.prog = p
	return p, nil
}

// NewLaunch materializes a fresh launch for the case: new flat memory with
// the input segment filled from Seed, the output and atomic segments zeroed,
// and the three segment bases passed as kernel args (s8, s9, s10). Each run
// mutates its memory, so every differential leg calls NewLaunch itself.
func (c *Case) NewLaunch() (*kernel.Launch, *Segments, error) {
	p, err := c.Program()
	if err != nil {
		return nil, nil, err
	}
	m := mem.NewFlat()
	seg := &Segments{
		InWords:     c.InWords,
		OutWords:    c.OutWordsPerWarp * c.TotalWarps(),
		AtomicWords: c.AtomicWords,
	}
	seg.InBase = m.Alloc(uint64(seg.InWords) * 4)
	seg.OutBase = m.Alloc(uint64(seg.OutWords) * 4)
	seg.AtomicBase = m.Alloc(uint64(seg.AtomicWords) * 4)
	r := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < seg.InWords; i++ {
		m.Write32(seg.InBase+uint64(i)*4, r.Uint32())
	}
	l := &kernel.Launch{
		Name:          c.Name,
		Program:       p,
		Memory:        m,
		NumWorkgroups: c.NumWorkgroups,
		WarpsPerGroup: c.WarpsPerGroup,
		Args:          []uint32{uint32(seg.InBase), uint32(seg.OutBase), uint32(seg.AtomicBase)},
	}
	if err := l.Validate(); err != nil {
		return nil, nil, err
	}
	return l, seg, nil
}

// caseHeader opens every serialized case. It keeps the name of the CLI that
// first wrote cases because the committed corpus carries it.
const caseHeader = "photon-verify case v1"

// Format renders the case as text. The format is line-oriented and fully
// explicit (one "inst" line per instruction with every operand spelled out)
// so failing programs diff cleanly in review.
func (c *Case) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, caseHeader)
	name := strings.Join(strings.Fields(c.Name), "-")
	if name == "" {
		name = "case"
	}
	fmt.Fprintf(&b, "name %s\n", name)
	fmt.Fprintf(&b, "seed %d\n", c.Seed)
	fmt.Fprintf(&b, "grid %d %d\n", c.NumWorkgroups, c.WarpsPerGroup)
	fmt.Fprintf(&b, "segs %d %d %d\n", c.InWords, c.OutWordsPerWarp, c.AtomicWords)
	fmt.Fprintf(&b, "lds %d\n", c.LDSBytes)
	for _, in := range c.Insts {
		fmt.Fprintf(&b, "inst %s %s %s %s %s %d %d\n",
			in.Op, formatOperand(in.Dst), formatOperand(in.Src0),
			formatOperand(in.Src1), formatOperand(in.Src2), in.Offset, in.Target)
	}
	fmt.Fprintln(&b, "end")
	return b.String()
}

func formatOperand(o isa.Operand) string {
	if o.Kind == isa.OperandNone {
		return "_"
	}
	return o.String()
}

func parseOperand(tok string) (isa.Operand, error) {
	if tok == "_" {
		return isa.Operand{}, nil
	}
	if len(tok) > 1 {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 {
			switch tok[0] {
			case 's':
				return isa.S(n), nil
			case 'v':
				return isa.V(n), nil
			case 'm':
				return isa.Mask(n), nil
			}
		}
	}
	n, err := strconv.ParseInt(tok, 10, 32)
	if err != nil {
		return isa.Operand{}, fmt.Errorf("verify: bad operand %q", tok)
	}
	return isa.Imm(int32(n)), nil
}

// opByName maps mnemonics back to opcodes for ParseCase.
var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for o := isa.Op(0); int(o) < isa.NumOps; o++ {
		m[o.String()] = o
	}
	return m
}()

// ParseCase parses the Format representation.
func ParseCase(text string) (*Case, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != caseHeader {
		return nil, fmt.Errorf("verify: missing %q header", caseHeader)
	}
	c := &Case{}
	sawEnd := false
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sawEnd {
			return nil, fmt.Errorf("verify: line %d: content after end", no+2)
		}
		f := strings.Fields(line)
		bad := func(err error) error {
			return fmt.Errorf("verify: line %d (%q): %w", no+2, line, err)
		}
		wantInts := func(n int) ([]int64, error) {
			if len(f) != n+1 {
				return nil, fmt.Errorf("want %d fields", n)
			}
			out := make([]int64, n)
			for i := range out {
				v, err := strconv.ParseInt(f[i+1], 10, 64)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}
		switch f[0] {
		case "name":
			if len(f) != 2 {
				return nil, bad(fmt.Errorf("want one name"))
			}
			c.Name = f[1]
		case "seed":
			v, err := wantInts(1)
			if err != nil {
				return nil, bad(err)
			}
			c.Seed = v[0]
		case "grid":
			v, err := wantInts(2)
			if err != nil {
				return nil, bad(err)
			}
			c.NumWorkgroups, c.WarpsPerGroup = int(v[0]), int(v[1])
		case "segs":
			v, err := wantInts(3)
			if err != nil {
				return nil, bad(err)
			}
			c.InWords, c.OutWordsPerWarp, c.AtomicWords = int(v[0]), int(v[1]), int(v[2])
		case "lds":
			v, err := wantInts(1)
			if err != nil {
				return nil, bad(err)
			}
			c.LDSBytes = int(v[0])
		case "inst":
			if len(f) != 8 {
				return nil, bad(fmt.Errorf("want 8 fields"))
			}
			op, ok := opByName[f[1]]
			if !ok {
				return nil, bad(fmt.Errorf("unknown op %q", f[1]))
			}
			in := isa.Inst{Op: op}
			for i, dst := range []*isa.Operand{&in.Dst, &in.Src0, &in.Src1, &in.Src2} {
				o, err := parseOperand(f[2+i])
				if err != nil {
					return nil, bad(err)
				}
				*dst = o
			}
			off, err := strconv.ParseInt(f[6], 10, 32)
			if err != nil {
				return nil, bad(err)
			}
			tgt, err := strconv.Atoi(f[7])
			if err != nil {
				return nil, bad(err)
			}
			in.Offset = int32(off)
			in.Target = tgt
			c.Insts = append(c.Insts, in)
		case "end":
			sawEnd = true
		default:
			return nil, bad(fmt.Errorf("unknown directive %q", f[0]))
		}
	}
	if !sawEnd {
		return nil, fmt.Errorf("verify: case has no end line")
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	// Build eagerly so parse errors surface here, not mid-run.
	if _, err := c.Program(); err != nil {
		return nil, err
	}
	return c, nil
}
