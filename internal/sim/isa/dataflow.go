package isa

// The data-independence pass. It runs once per program at build and starts
// from what the timing model reads of an execution: the addresses of vector
// and scalar memory instructions, the operands of compares, and the masks
// and flags that EXEC-mask instructions and branches read. Everything else a
// program computes is a value no timing decision looks at.
//
// Forward taint. The result of every load (s_load, v_load, lds_load, and an
// atomic's returned old value) is tainted, and an instruction that reads a
// tainted location taints everything it writes. A program is independent
// when it has no atomic and no operand the timing model reads is tainted:
// its addresses, control flow and EXEC masks are then functions of the
// dispatch ids (s0..s3), the kernel arguments (s8 on), the lane id (v0) and
// immediates, which are all untainted, and never of memory contents.
//
// Backward liveness. Starting from the same operands, an ALU instruction
// (scalar or vector, compares excluded) is live when it writes a location a
// live instruction or a timing read reads. In an independent program the
// rest are value-dead: their results reach no address, compare, EXEC-mask
// instruction or branch. Every tainted ALU instruction is among them, since
// a tainted live one would taint a timing read. LDS instructions are dead
// too: the timing model reads neither their addresses nor their data, and
// an LDS load's result is tainted.
//
// Both passes are flow-insensitive and per register: a register is one
// location wherever in the program it is written or read, as are SCC, VCC,
// EXEC and each EXEC save slot. That is conservative, and enough for every
// generator in the tree.

// dataflow numbers a program's locations: scalar registers, then vector
// registers, then SCC, VCC, EXEC and the EXEC save slots.
type dataflow struct {
	ns, nv int
}

func (d dataflow) scc() int32         { return int32(d.ns + d.nv) }
func (d dataflow) vcc() int32         { return int32(d.ns + d.nv + 1) }
func (d dataflow) exec() int32        { return int32(d.ns + d.nv + 2) }
func (d dataflow) mask(i int) int32   { return int32(d.ns + d.nv + 3 + i) }
func (d dataflow) size(masks int) int { return d.ns + d.nv + 3 + masks }

// reg returns the location of a register operand, or -1 for an immediate or
// an absent operand.
func (d dataflow) reg(o Operand) int32 {
	switch o.Kind {
	case OperandSReg:
		return int32(o.Idx)
	case OperandVReg:
		return int32(d.ns + int(o.Idx))
	case OperandMask:
		return d.mask(int(o.Idx))
	}
	return -1
}

// effect is what one instruction reads and writes, as locations.
type effect struct {
	defs  [2]int32 // written locations, -1 when unused
	uses  [3]int32 // read locations, -1 when unused
	timed [3]bool
	// load marks an instruction whose defs are memory contents.
	load bool
	// alu marks a value instruction, which the liveness pass may find dead.
	alu bool
}

// effectOf returns instruction in's effect. timed[i] marks a use the timing
// model reads.
func (d dataflow) effectOf(in *Inst) effect {
	e := effect{defs: [2]int32{-1, -1}, uses: [3]int32{-1, -1, -1}}
	use := func(i int, loc int32, timed bool) { e.uses[i], e.timed[i] = loc, timed }
	op := in.Op
	switch {
	case op <= OpSMod, op >= OpVMov && op <= OpVCvtF2I: // scalar and vector ALU
		e.alu = true
		e.defs[0] = d.reg(in.Dst)
		use(0, d.reg(in.Src0), false)
		use(1, d.reg(in.Src1), false)
		use(2, d.reg(in.Src2), false)
	case op >= OpSCmpLt && op <= OpSCmpGe:
		e.defs[0] = d.scc()
		use(0, d.reg(in.Src0), true)
		use(1, d.reg(in.Src1), true)
	case op >= OpVCmpLt && op <= OpVFCmpGt:
		e.defs[0] = d.vcc()
		use(0, d.reg(in.Src0), true)
		use(1, d.reg(in.Src1), true)
	case op == OpSAndSaveExec:
		e.defs = [2]int32{d.reg(in.Dst), d.exec()}
		use(0, d.exec(), true)
		use(1, d.vcc(), true)
	case op == OpSAndNotExec:
		e.defs[0] = d.exec()
		use(0, d.reg(in.Src0), true)
		use(1, d.vcc(), true)
	case op == OpSSetExec:
		e.defs[0] = d.exec()
		use(0, d.reg(in.Src0), true)
	case op == OpSMovExecAll:
		e.defs[0] = d.exec()
	case op == OpSLoad:
		e.load = true
		e.defs[0] = d.reg(in.Dst)
		use(0, d.reg(in.Src0), true)
	case op == OpVLoad, op == OpVStore, op.IsAtomic():
		e.load = op != OpVStore
		if e.load {
			e.defs[0] = d.reg(in.Dst)
		}
		use(0, d.reg(in.Src0), true)
		use(1, d.reg(in.Src1), false) // store data, atomic operand
		use(2, d.exec(), true)        // which lanes, so how many addresses
	case op == OpLDSLoad:
		e.load = true
		e.defs[0] = d.reg(in.Dst)
		use(0, d.reg(in.Src0), false)
	case op == OpLDSStore:
		use(0, d.reg(in.Src0), false)
		use(1, d.reg(in.Src1), false)
	case op == OpCBranchSCC0, op == OpCBranchSCC1:
		use(0, d.scc(), true)
	case op == OpCBranchVCCZ, op == OpCBranchVCCNZ:
		use(0, d.vcc(), true)
	case op == OpCBranchExecZ, op == OpCBranchExecNZ:
		use(0, d.exec(), true)
	}
	return e
}

// computeDataflow runs the taint and liveness passes and records the result
// in p.atomic, p.independent and the micro-ops' Dead marks.
func (p *Program) computeDataflow() {
	d := dataflow{ns: p.NumSRegs, nv: p.NumVRegs}
	masks := 0
	effects := make([]effect, len(p.Insts))
	for pc := range p.Insts {
		in := &p.Insts[pc]
		for _, o := range []Operand{in.Dst, in.Src0, in.Src1, in.Src2} {
			if o.Kind == OperandMask {
				masks = max(masks, int(o.Idx)+1)
			}
		}
		effects[pc] = d.effectOf(in)
	}
	n := d.size(masks)

	tainted := make([]bool, n)
	p.independent = true
	for changed := true; changed; {
		changed = false
		for i := range effects {
			e := &effects[i]
			t := e.load
			for _, u := range e.uses {
				t = t || u >= 0 && tainted[u]
			}
			for _, def := range e.defs {
				if t && def >= 0 && !tainted[def] {
					tainted[def], changed = true, true
				}
			}
		}
	}
	p.atomic = false
	for pc := range effects {
		e := &effects[pc]
		if p.Insts[pc].Op.IsAtomic() {
			p.atomic, p.independent = true, false
		}
		for i, u := range e.uses {
			if e.timed[i] && u >= 0 && tainted[u] {
				p.independent = false
			}
		}
	}
	if !p.independent {
		return
	}

	live := make([]bool, n)
	for _, e := range effects {
		for i, u := range e.uses {
			if e.timed[i] && u >= 0 {
				live[u] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(effects) - 1; i >= 0; i-- { // uses mostly follow defs
			e := &effects[i]
			if !e.alu || e.defs[0] < 0 || !live[e.defs[0]] {
				continue
			}
			for _, u := range e.uses {
				if u >= 0 && !live[u] {
					live[u], changed = true, true
				}
			}
		}
	}
	for pc, e := range effects {
		u := &p.uops[pc]
		u.Dead = u.Step == StepLDS || e.alu && (e.defs[0] < 0 || !live[e.defs[0]])
	}
}

// Independent reports whether the program's timing is independent of the
// data it reads: it has no atomic, and no memory address, compare operand,
// EXEC mask or branch condition depends on a loaded value (see the pass's
// comment in dataflow.go). A detailed run of such a program that drops its
// image may skip the micro-ops marked MicroOp.Dead and every vector load's
// and store's data movement, and its timing does not change.
func (p *Program) Independent() bool { return p.independent }

// HasAtomic reports whether the program has an atomic instruction. The
// values an atomic returns, and so whatever depends on them, follow the
// order warps happen to execute it in, so a run of such a program over a
// fork of the image, or a functional run beside its detailed one, need not
// leave the image its detailed run does.
func (p *Program) HasAtomic() bool { return p.atomic }
