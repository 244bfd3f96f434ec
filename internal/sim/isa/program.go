package isa

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// BasicBlock is a single-entry single-exit run of instructions. Following
// the paper, blocks end at branch instructions, s_barrier, and s_endpgm, and
// begin at PC 0, at branch targets, and immediately after a block-ending
// instruction. A block is identified by the PC of its first instruction plus
// its length.
type BasicBlock struct {
	ID      int // index in Program.Blocks
	StartPC int
	Len     int
}

// Key returns the (startPC, length) identity the paper uses to distinguish
// basic blocks.
func (b BasicBlock) Key() BlockKey { return BlockKey{StartPC: b.StartPC, Len: b.Len} }

// BlockKey identifies a basic block by start PC and instruction count.
type BlockKey struct {
	StartPC int
	Len     int
}

// String formats the key as "pcSTART/LEN".
func (k BlockKey) String() string { return fmt.Sprintf("pc%d/%d", k.StartPC, k.Len) }

// Program is an immutable compiled kernel program: a flat instruction list
// plus its basic-block structure.
type Program struct {
	Name   string
	Insts  []Inst
	Blocks []BasicBlock
	uops   []MicroOp // PC -> pre-decoded instruction, incl. its block index

	// NumVRegs and NumSRegs are the register-file sizes the program needs
	// (highest index used + 1).
	NumVRegs int
	NumSRegs int
	// LDSBytes is the local-data-share allocation per workgroup.
	LDSBytes int
	// Fingerprint hashes the full instruction stream and the block options.
	// Two programs with the same fingerprint have identical code and block
	// structure, so their basic blocks are directly comparable; the sampling
	// layers namespace BBVs by it so blocks from unrelated programs never
	// collide.
	Fingerprint uint64

	opts        BlockOptions
	atomic      bool // see HasAtomic
	independent bool // see Independent
}

// BlockOptions selects the basic-block boundary rules.
type BlockOptions struct {
	// SplitAtWaitcnt additionally ends blocks at s_waitcnt, isolating each
	// set of memory accesses in its own block — the variant the paper
	// sketches as future work in Observation 3.
	SplitAtWaitcnt bool
}

// NewProgram validates the instruction list and computes the basic-block
// structure and the micro-op table.
func NewProgram(name string, insts []Inst, ldsBytes int) (*Program, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("isa: program %q has no instructions", name)
	}
	p := &Program{Name: name, Insts: insts, LDSBytes: ldsBytes}
	for pc := range p.Insts {
		p.Insts[pc].PC = pc
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.computeRegCounts()
	p.computeBlocks()
	p.computeDataflow()
	p.computeFingerprint()
	return p, nil
}

// MustProgram is NewProgram that panics on error; kernel builders use it for
// statically-known-good programs.
func MustProgram(name string, insts []Inst, ldsBytes int) *Program {
	p, err := NewProgram(name, insts, ldsBytes)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) validate() error {
	last := p.Insts[len(p.Insts)-1]
	if last.Op != OpSEndpgm && last.Op != OpSBranch {
		return fmt.Errorf("isa: program %q does not end with s_endpgm or a branch", p.Name)
	}
	sawEnd := false
	for pc, in := range p.Insts {
		if in.Op >= opCount {
			return fmt.Errorf("isa: %q pc%d: invalid opcode %d", p.Name, pc, in.Op)
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("isa: %q pc%d: branch target %d out of range", p.Name, pc, in.Target)
			}
		}
		if in.Op == OpSEndpgm {
			sawEnd = true
		}
	}
	if !sawEnd {
		return fmt.Errorf("isa: program %q has no s_endpgm", p.Name)
	}
	return nil
}

func (p *Program) computeRegCounts() {
	maxS, maxV := -1, -1
	scan := func(o Operand) {
		switch o.Kind {
		case OperandSReg:
			if int(o.Idx) > maxS {
				maxS = int(o.Idx)
			}
		case OperandVReg:
			if int(o.Idx) > maxV {
				maxV = int(o.Idx)
			}
		}
	}
	for _, in := range p.Insts {
		scan(in.Dst)
		scan(in.Src0)
		scan(in.Src1)
		scan(in.Src2)
	}
	p.NumSRegs = maxS + 1
	p.NumVRegs = maxV + 1
}

func (p *Program) endsBlock(op Op) bool {
	if p.opts.SplitAtWaitcnt && op == OpSWaitcnt {
		return true
	}
	return op.EndsBasicBlock()
}

func (p *Program) computeBlocks() {
	starts := make([]bool, len(p.Insts))
	starts[0] = true
	for pc, in := range p.Insts {
		if in.Op.IsBranch() {
			starts[in.Target] = true
		}
		if p.endsBlock(in.Op) && pc+1 < len(p.Insts) {
			starts[pc+1] = true
		}
	}
	p.uops = make([]MicroOp, len(p.Insts))
	blockStart := 0
	flush := func(end int) {
		b := BasicBlock{ID: len(p.Blocks), StartPC: blockStart, Len: end - blockStart}
		p.Blocks = append(p.Blocks, b)
		for pc := end - 1; pc >= blockStart; pc-- {
			u := decode(&p.Insts[pc], b)
			if pc+1 < end && p.uops[pc+1].Step == StepALU {
				u.Run = p.uops[pc+1].Run + 1
			}
			p.uops[pc] = u
		}
	}
	for pc := 1; pc < len(p.Insts); pc++ {
		if starts[pc] {
			flush(pc)
			blockStart = pc
		}
	}
	flush(len(p.Insts))
}

func (p *Program) computeFingerprint() {
	h := fnv.New64a()
	var buf [20]byte
	put := func(o Operand, at int) {
		buf[at] = byte(o.Kind)
		buf[at+1] = byte(o.Idx)
		buf[at+2] = byte(o.Imm)
		buf[at+3] = byte(o.Imm >> 8)
	}
	for _, in := range p.Insts {
		buf[0] = byte(in.Op)
		put(in.Dst, 1)
		put(in.Src0, 5)
		put(in.Src1, 9)
		put(in.Src2, 13)
		buf[17] = byte(in.Offset)
		buf[18] = byte(in.Offset >> 8)
		buf[19] = byte(in.Target)
		h.Write(buf[:])
	}
	if p.opts.SplitAtWaitcnt {
		h.Write([]byte{1})
	}
	p.Fingerprint = h.Sum64()
}

// WithBlockOptions returns a program with the same instructions but basic
// blocks recomputed under the given options (the instructions are shared;
// block metadata and the micro-op table are rebuilt). Programs with
// different options have different fingerprints, so their BBVs never mix.
func (p *Program) WithBlockOptions(o BlockOptions) *Program {
	if o == p.opts {
		return p
	}
	q := &Program{
		Name:     p.Name,
		Insts:    p.Insts,
		NumVRegs: p.NumVRegs,
		NumSRegs: p.NumSRegs,
		LDSBytes: p.LDSBytes,
		opts:     o,
	}
	q.computeBlocks()
	q.computeDataflow()
	q.computeFingerprint()
	return q
}

// BlockAt returns the basic block containing pc.
func (p *Program) BlockAt(pc int) BasicBlock { return p.Blocks[p.uops[pc].Block] }

// MicroOps returns the program's pre-decoded instruction table, indexed by
// PC. It is built once with the block structure and never written again, so
// concurrent readers need no synchronization; callers must not modify it.
func (p *Program) MicroOps() []MicroOp { return p.uops }

// NumBlocks returns the number of static basic blocks.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// Disassemble renders the whole program with block boundaries marked.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %s: %d insts, %d blocks, %d sregs, %d vregs, %d LDS bytes\n",
		p.Name, len(p.Insts), len(p.Blocks), p.NumSRegs, p.NumVRegs, p.LDSBytes)
	for _, in := range p.Insts {
		if b := p.BlockAt(in.PC); b.StartPC == in.PC {
			fmt.Fprintf(&sb, "BB%d (%s):\n", b.ID, b.Key())
		}
		fmt.Fprintf(&sb, "  pc%-5d %s\n", in.PC, in)
	}
	return sb.String()
}
