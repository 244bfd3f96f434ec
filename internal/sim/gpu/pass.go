package gpu

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
)

// Pass is a functional pass of one launch that may run beside its Execute
// (Plan.Pass): every workgroup in order, over a fork of the image at
// launch, each warp tallied. A run loop that may spare a CPU starts it with
// Go; Execute then reads the workgroups after its gate from the tally with
// Take instead of running them on the live image, and the run loop ends the
// pass with Stop, which reports whether Execute used it, in which case the
// fork's image is the kernel's. A pass nobody started is the serial run:
// Take sends Execute to the live image.
//
// Beside a started pass, the run loop may run an independent program's
// Execute timing-only over a launch with no image. The pass then makes the
// kernel's image: the run loop takes the whole pass, unless Execute named
// the workgroups it executed with Prefix, which the run loop advances the
// image over instead.
type Pass struct {
	done   chan struct{} // closed when the pass ends; nil until Go
	stop   atomic.Bool   // set by Stop, polled at workgroup boundaries
	tally  emu.Tally
	err    error
	crash  *passPanic // raised again by Take
	used   bool
	prefix int  // the workgroup count Execute named, when named
	named  bool // Execute called Prefix
}

// Go starts the pass over l, a launch over a fork of the image at launch,
// on a new goroutine, which hands the pass's body to wrap: wrap runs it
// once, so the caller can time and trace it there. The pass has ended, and
// wrap has returned, when Take or Stop returns.
func (p *Pass) Go(l *kernel.Launch, wrap func(body func())) {
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		wrap(func() { p.run(l) })
	}()
}

// passPanic is a panic of a pass with the stack of its goroutine, which
// Take raises again on the detailed run's goroutine, where a serial run
// would have met the panic.
type passPanic struct {
	v     any
	stack []byte
}

func (p *passPanic) Error() string { return fmt.Sprintf("%v\n\nfunctional pass:\n%s", p.v, p.stack) }

func (p *Pass) run(l *kernel.Launch) {
	defer func() {
		if v := recover(); v != nil {
			p.crash = &passPanic{v, debug.Stack()}
		}
	}()
	p.err = p.tally.Record(l, 0, l.NumWorkgroups, p.stop.Load)
}

// Take waits for a started pass to end and returns its tally, which holds
// workgroups [from, NumWorkgroups). ok is false when the pass was never
// started, or failed before workgroup from, which the detailed run executed
// instead: the caller then runs the workgroups itself, as a serial run
// does. A failure at workgroup from or later is the one the serial run
// meets: its error is returned, and its panic raised again.
func (p *Pass) Take(from int) (t *emu.Tally, ok bool, err error) {
	if p == nil || p.done == nil {
		return nil, false, nil
	}
	<-p.done
	failed := p.err != nil || p.crash != nil
	switch {
	case failed && p.tally.End() < from:
		return nil, false, nil
	case p.crash != nil:
		panic(p.crash)
	case p.err != nil:
		return nil, true, p.err
	}
	p.used = true
	return &p.tally, true, nil
}

// Prefix tells the pass that Execute executed only workgroups [0, n) and
// predicted the rest without running them: the pass's image is not the
// kernel's. A nil pass ignores it.
func (p *Pass) Prefix(n int) {
	if p != nil {
		p.prefix, p.named = n, true
	}
}

// Prefixed returns the workgroup count Execute named with Prefix, and
// whether it named one.
func (p *Pass) Prefixed() (n int, ok bool) { return p.prefix, p.named }

// Stop ends a started pass at its next workgroup boundary and waits for
// it. It reports whether Execute took the pass's tally: the pass then ran
// every workgroup, and its fork holds the kernel's image.
func (p *Pass) Stop() (used bool) {
	if p.done == nil {
		return false
	}
	p.stop.Store(true)
	<-p.done
	return p.used
}
