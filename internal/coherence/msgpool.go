package coherence

// Message ownership (DESIGN.md §14). A *Msg is owned by exactly one
// party at a time: the sender builds it from the pool, the network
// carries it, and the receiving controller owns it for the duration of
// HandleWired, which releases it back to the pool on return. A handler
// that needs the message after returning (a request waiting out the
// LLC latency, a fill waiting at the network interface, a deferred
// put) copies the value into its own plain-data record — copy-on-
// retain — so no pointer outlives its owner and no reference counting
// is needed.

// msgReleased is the Type a Msg carries while it sits on the free
// list. It names no protocol message, so a handler handed a released
// Msg falls through to its `default: fail` arm and reports a typed
// ProtocolError instead of acting on recycled contents. It is left
// untyped on purpose: a typed MsgType constant would join the message
// vocabulary that the switch-coverage lint and the protocol model
// enumerate.
const msgReleased = 0xff

// freeList recycles objects of one type. get returns a recycled object
// or a fresh zero one; callers reinitialize what they take.
type freeList[T any] []*T

func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		return new(T)
	}
	x := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return x
}

func (f *freeList[T]) put(x *T) { *f = append(*f, x) }

// MsgPool is a machine's message free list. One pool serves every
// controller of a machine, so messages flow back to wherever they are
// needed next instead of piling up per controller.
type MsgPool struct {
	free freeList[Msg]
}

// New returns a pooled message holding v.
func (p *MsgPool) New(v Msg) *Msg {
	m := p.free.get()
	*m = v
	return m
}

// Release returns m to the pool and poisons it (see msgReleased).
// Releasing an already-released message is a no-op, so a poisoned
// message that reaches a handler cannot enter the list twice.
func (p *MsgPool) Release(m *Msg) {
	if m.Type == msgReleased {
		return
	}
	m.Type = msgReleased
	p.free.put(m)
}

// MsgPooler is the optional Env extension through which a machine
// shares one MsgPool across its controllers. Controllers built on an
// Env without it keep a private pool.
type MsgPooler interface {
	MsgPool() *MsgPool
}

func poolOf(env Env) *MsgPool {
	if p, ok := env.(MsgPooler); ok {
		return p.MsgPool()
	}
	return new(MsgPool)
}
