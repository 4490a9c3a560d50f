package mesh

import (
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// legSink records the arrival cycle the mesh stamps on every packet
// (EvMeshLeg.B), indexed by send order.
type legSink struct{ at []uint64 }

func (s *legSink) Emit(e obs.Event) {
	if e.Kind == obs.EvMeshLeg {
		s.at = append(s.at, e.B)
	}
}

// TestCalendarMatchesSortedReference drives the packet mesh with random
// traffic — jitter, fault delays that push arrivals past the timing
// wheel's span into the far heap, and skipped Tick cycles as under
// fast-forward — and checks delivery order, Pending and NextEvent
// against a reference that sorts the stamped arrivals by (at, seq).
func TestCalendarMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		sink := &legSink{}
		var got []int
		var deliveredAt []uint64
		m := New(4, 4, func(now uint64, pkt Packet) {
			got = append(got, pkt.Payload.(int))
			deliveredAt = append(deliveredAt, now)
		})
		m.Trace = sink
		m.Jitter = 1 + rng.Intn(6)
		m.FaultDelay = func(src, dst int) uint64 {
			switch r := rng.Intn(10); {
			case r == 0:
				return uint64(300 + rng.Intn(700)) // beyond the wheel span
			case r < 3:
				return uint64(rng.Intn(40))
			default:
				return 0
			}
		}

		delivered := map[int]bool{}
		refNext := func(now uint64) uint64 {
			best := never
			for i, at := range sink.at {
				if !delivered[i] && at < best {
					best = at
				}
			}
			if best != never && best <= now {
				return now + 1
			}
			return best
		}

		sent := 0
		now := uint64(0)
		for step := 0; step < 400; step++ {
			for k := rng.Intn(4); k > 0; k-- {
				src, dst := rng.Intn(16), rng.Intn(16)
				m.Send(now, Packet{Src: src, Dst: dst, Flits: 1 + rng.Intn(5), Payload: sent})
				sent++
			}
			if want := refNext(now); m.NextEvent(now) != want {
				t.Fatalf("seed %d cycle %d: NextEvent = %d, reference %d", seed, now, m.NextEvent(now), want)
			}
			// Advance 1 cycle, or skip ahead as fast-forward does.
			if rng.Intn(5) == 0 {
				now += uint64(1 + rng.Intn(300))
			} else {
				now++
			}
			before := len(got)
			m.Tick(now)
			for _, i := range got[before:] {
				delivered[i] = true
			}
			if m.Pending() != sent-len(got) {
				t.Fatalf("seed %d cycle %d: Pending = %d, reference %d", seed, now, m.Pending(), sent-len(got))
			}
		}
		for m.Pending() > 0 {
			now += 100
			m.Tick(now)
		}

		// Reference: every packet in (arrival, send) order, delivered by
		// the first Tick at or after its arrival.
		ref := make([]int, sent)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool { return sink.at[ref[a]] < sink.at[ref[b]] })
		if len(got) != sent {
			t.Fatalf("seed %d: delivered %d of %d packets", seed, len(got), sent)
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("seed %d: delivery %d is packet %d, reference %d", seed, k, got[k], ref[k])
			}
			if deliveredAt[k] < sink.at[got[k]] {
				t.Fatalf("seed %d: packet %d delivered at %d before its arrival %d", seed, got[k], deliveredAt[k], sink.at[got[k]])
			}
		}
	}
}
