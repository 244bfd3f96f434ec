package emu

// CheckLaunch exposes the three-way launch differential to corpus_test.go,
// which lives in the external test package so it can import internal/verify
// (verify imports emu) for the committed case corpus and the generator.
var CheckLaunch = checkLaunch

// StepOne is Step without the private run: it executes exactly the
// instruction at PC. The per-instruction oracles (the reference interpreter
// comparisons, the semantics tests) advance warps with it; production code
// only ever steps by run.
func (w *Warp) StepOne(info *StepInfo) {
	st, slot := w.store, w.slot
	p := w.Launch.Program
	pc := int(st.pc[slot])
	u := &p.MicroOps()[pc]
	if u.Head {
		st.bb[slot*st.blocks+int(u.Block)]++
	}
	st.instCount[slot]++
	var f frame
	f.load(w)
	st.pc[slot] = int32(f.exec(u, pc))
	f.save()
	info.fill(u, &p.Insts[pc], &f)
}
