package coherence

import (
	"strings"
	"testing"

	"repro/internal/addrspace"
)

// TestReleasedMsgReportsProtocolError checks the poison on released
// messages: a handler handed a Msg that already went back to the pool
// must fail with a typed ProtocolError naming it, never act on the
// recycled contents, and must not put it on the free list twice.
func TestReleasedMsgReportsProtocolError(t *testing.T) {
	line := addrspace.Line(8)
	for _, tc := range []struct {
		ctrl    string
		typ     MsgType
		handler func(e *mockEnv, m *Msg)
	}{
		{"l1", MsgInv, func(e *mockEnv, m *Msg) { e.l1s[1].HandleWired(e.now, m) }},
		{"home", MsgPutS, func(e *mockEnv, m *Msg) { e.home(line).HandleWired(e.now, m) }},
	} {
		e := newMockEnv(4)
		var pool MsgPool
		m := pool.New(Msg{Type: tc.typ, Line: line, Src: 2})
		pool.Release(m)
		pool.Release(m) // a double release is a no-op
		if len(pool.free) != 1 {
			t.Fatalf("%s: free list holds %d entries after a double release, want 1", tc.ctrl, len(pool.free))
		}
		tc.handler(e, m)
		pe := e.protoErr
		if pe == nil {
			t.Fatalf("%s: released %v handled without a protocol error", tc.ctrl, tc.typ)
		}
		if pe.Ctrl != tc.ctrl || !strings.Contains(pe.Error(), "released") {
			t.Errorf("%s: error %q (ctrl %s) does not name the released message", tc.ctrl, pe.Error(), pe.Ctrl)
		}
		if len(e.wired) != 0 {
			t.Errorf("%s: handler sent %d messages in response to a released one", tc.ctrl, len(e.wired))
		}
	}
}

// TestHandleWiredReleasesMsg checks the ownership rule at the receive
// side: the controller releases a delivered message when HandleWired
// returns, so the value is poisoned afterwards.
func TestHandleWiredReleasesMsg(t *testing.T) {
	e := newMockEnv(4)
	line := addrspace.Line(8)
	m := &Msg{Type: MsgPutAck, Line: line, Src: e.HomeOf(line)}
	e.l1s[1].HandleWired(e.now, m)
	if m.Type != msgReleased {
		t.Fatalf("delivered message still has type %v after HandleWired returned", m.Type)
	}
	if e.protoErr != nil {
		t.Fatalf("PutAck reported %v", e.protoErr)
	}
}
