package event

// Queue is the scheduling surface the timing model (and any other
// event-driven component) drives. Both Engine (the wheel + 4-ary heap
// production engine) and RefEngine (the container/heap reference) implement
// it, which is what lets the verify subsystem run the same simulation on
// both engines and demand identical schedules — the engine-equivalence
// metamorphic check.
type Queue interface {
	// Now returns the current virtual time.
	Now() Time
	// Schedule registers handler to run at time at (past times clamp to now).
	Schedule(at Time, handler Handler)
	// After registers handler to run delay cycles from now.
	After(delay Time, handler Handler)
	// Run executes events until the queue drains, returning the final time.
	Run() Time
	// Step executes exactly one event if any is pending.
	Step() bool
	// Pending reports how many events are waiting to fire.
	Pending() int
	// Processed returns the total number of events executed so far.
	Processed() uint64
}

var (
	_ Queue = (*Engine)(nil)
	_ Queue = (*RefEngine)(nil)
)
