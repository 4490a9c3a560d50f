// Package engine provides the simulator's event queue: a deterministic
// (cycle, sequence) ordered collection of callbacks. Components use it
// for anything that happens "later" — cache access latencies, memory
// controller service times, request retry timers.
package engine

// Runner is the pooled alternative to a closure callback: callers that
// fire the same kind of event repeatedly implement Run on a recycled
// struct, so scheduling allocates nothing. An interface holding a
// pointer does not escape-allocate the way a fresh closure does.
type Runner interface {
	Run(now uint64)
}

// event is a scheduled callback: either a closure or a Runner.
type event struct {
	fn func(now uint64)
	r  Runner
}

// Queue is the event queue: a Calendar of callbacks. The zero value is
// ready to use.
type Queue struct {
	cal Calendar[event]
}

// At schedules fn to run at the given cycle. Events scheduled for the
// same cycle run in scheduling order.
func (q *Queue) At(cycle uint64, fn func(now uint64)) {
	q.cal.Push(cycle, event{fn: fn})
}

// AtRunner schedules r.Run at the given cycle, sharing the same
// (cycle, seq) ordering domain as At — a Runner and a closure
// scheduled back-to-back for one cycle run in scheduling order.
func (q *Queue) AtRunner(cycle uint64, r Runner) {
	q.cal.Push(cycle, event{r: r})
}

// RunDue runs every event with at <= now, in (cycle, seq) order. Events
// scheduled during execution for cycles <= now also run. It returns
// the number of events executed so the driving loop can tell a
// quiescent cycle from a busy one.
func (q *Queue) RunDue(now uint64) int {
	ran := 0
	for {
		e, ok := q.cal.PopDue(now)
		if !ok {
			return ran
		}
		if e.r != nil {
			e.r.Run(now)
		} else {
			e.fn(now)
		}
		ran++
	}
}

// Next returns the cycle of the earliest pending event.
//
//vet:pure
func (q *Queue) Next() (uint64, bool) { return q.cal.Next() }

// Len returns the number of pending events.
//
//vet:pure
func (q *Queue) Len() int { return q.cal.Len() }
