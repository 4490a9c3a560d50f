package main

// spanID names one layer boundary the traced run times.
type spanID int

// A tracer keeps a stack of open spans. Closing a span adds its
// duration to its total and its duration minus the time its child
// spans covered to its self time, so a layer that calls into another
// (mesh.Tick delivering into L1Ctrl.HandleWired) is not charged for
// the callee.
type tracer struct {
	clock func() int64
	stack []openSpan
	stats []spanStat
}

type openSpan struct {
	id    spanID
	start int64
	child int64 // time covered by closed direct children
}

type spanStat struct {
	calls uint64
	total int64 // ns, children included
	self  int64 // ns, children excluded
}

func newTracer(n int, clock func() int64) *tracer {
	if clock == nil {
		base := wallNow()
		clock = func() int64 { return int64(wallNow().Sub(base)) }
	}
	return &tracer{clock: clock, stats: make([]spanStat, n)}
}

func (t *tracer) begin(id spanID) {
	t.stack = append(t.stack, openSpan{id: id, start: t.clock()})
}

func (t *tracer) end() {
	top := len(t.stack) - 1
	sp := t.stack[top]
	t.stack = t.stack[:top]
	d := t.clock() - sp.start
	st := &t.stats[sp.id]
	st.calls++
	st.total += d
	st.self += d - sp.child
	if top > 0 {
		t.stack[top-1].child += d
	}
}

// selfNsPerCall is a span's mean self time per call (0 when never
// called).
func (t *tracer) selfNsPerCall(id spanID) float64 {
	st := t.stats[id]
	if st.calls == 0 {
		return 0
	}
	return float64(st.self) / float64(st.calls)
}
