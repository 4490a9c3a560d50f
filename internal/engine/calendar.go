package engine

// The timing wheel covers wheelSize cycles from the calendar's current
// floor. Nearly everything the simulator schedules is a small fixed
// latency ahead (L1 hits, LLC banks, link hops, memory service), so
// almost all traffic takes the O(1) wheel path; only long timers (NACK
// retry backoff, watchdog sweeps, stalled links) fall through to the
// far heap.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Calendar is a (cycle, seq)-ordered collection of items: the timing
// core shared by the event Queue and the packet mesh's in-flight set.
// The zero value is ready to use.
//
// Layout: a timing wheel of per-cycle FIFO slots for items within
// wheelSize cycles of the current floor, plus a hand-maintained
// min-heap for items beyond it. Removal order is exactly the
// (cycle, seq) order a single heap would give:
//
//   - within one wheel slot, append order is seq order;
//   - for one cycle, every far-heap item precedes every wheel item,
//     because an item lands in the heap only while the cycle is at
//     least wheelSize away and in the wheel only once it is closer —
//     and the floor advances monotonically, so all heap placements for
//     a cycle happen (seq-wise) before all wheel placements.
//
// A wheel slot stores bare items: the slot is the cycle and append
// order is seq order, so only far items carry their (cycle, seq) key.
// Slots keep their backing arrays across cycles, which is where the
// calendar's memory goes; keeping wheel items small keeps it small.
//
// The heap is maintained by hand on a plain slice rather than through
// container/heap: the interface-based API boxes every item on Push
// (one allocation per insert), whereas the open-coded sift keeps items
// in a single backing array reused across cycles.
type Calendar[T any] struct {
	wheel  [wheelSize][]T
	wcount int    // items resident in the wheel
	cur    uint64 // floor: every cycle < cur has been drained
	head   int    // items of the floor slot already popped
	far    []farItem[T]
	seq    uint64
}

type farItem[T any] struct {
	at  uint64
	seq uint64
	v   T
}

// Push schedules v for the given cycle. Items pushed for the same
// cycle pop in push order. An item for a cycle already drained pops
// with the floor slot, keeping its own cycle for ordering against the
// far heap.
func (c *Calendar[T]) Push(at uint64, v T) {
	c.seq++
	slot := at
	if slot < c.cur {
		slot = c.cur
	}
	if slot-c.cur < wheelSize {
		c.wheel[slot&wheelMask] = append(c.wheel[slot&wheelMask], v)
		c.wcount++
		return
	}
	c.far = append(c.far, farItem[T]{at: at, seq: c.seq, v: v})
	c.siftUp(len(c.far) - 1)
}

// PopDue removes and returns the earliest item due at or before now,
// in (cycle, seq) order. Items pushed between calls for cycles <= now
// (zero-delay reschedules) are returned by the same drain. Once it
// reports false the floor has advanced to now.
func (c *Calendar[T]) PopDue(now uint64) (T, bool) {
	for c.cur <= now {
		if len(c.far) > 0 && c.far[0].at <= c.cur {
			return c.popFar(), true
		}
		slot := &c.wheel[c.cur&wheelMask]
		if c.head < len(*slot) {
			v := (*slot)[c.head]
			var zero T
			(*slot)[c.head] = zero // drop references for the GC
			c.head++
			c.wcount--
			return v, true
		}
		*slot = (*slot)[:0]
		c.head = 0
		if c.cur == now {
			break
		}
		if c.wcount == 0 {
			// Empty wheel: jump straight to the next far item (the
			// common case after a quiescence fast-forward).
			if len(c.far) == 0 || c.far[0].at > now {
				c.cur = now
				break
			}
			c.cur = c.far[0].at
			continue
		}
		c.cur++
	}
	var zero T
	return zero, false
}

// popFar removes and returns the minimum far item, keeping the backing
// array.
func (c *Calendar[T]) popFar() T {
	v := c.far[0].v
	n := len(c.far) - 1
	c.far[0] = c.far[n]
	c.far[n] = farItem[T]{}
	c.far = c.far[:n]
	if n > 0 {
		c.siftDown(0)
	}
	return v
}

func (c *Calendar[T]) less(i, j int) bool {
	if c.far[i].at != c.far[j].at {
		return c.far[i].at < c.far[j].at
	}
	return c.far[i].seq < c.far[j].seq
}

func (c *Calendar[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.far[i], c.far[parent] = c.far[parent], c.far[i]
		i = parent
	}
}

func (c *Calendar[T]) siftDown(i int) {
	n := len(c.far)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && c.less(right, left) {
			min = right
		}
		if !c.less(min, i) {
			return
		}
		c.far[i], c.far[min] = c.far[min], c.far[i]
		i = min
	}
}

// Next returns the cycle of the earliest pending item.
//
//vet:pure
func (c *Calendar[T]) Next() (uint64, bool) {
	if c.wcount > 0 {
		for cyc := c.cur; cyc < c.cur+wheelSize; cyc++ {
			n := len(c.wheel[cyc&wheelMask])
			if cyc == c.cur {
				n -= c.head
			}
			if n == 0 {
				continue
			}
			if len(c.far) > 0 && c.far[0].at < cyc {
				return c.far[0].at, true
			}
			return cyc, true
		}
	}
	if len(c.far) == 0 {
		return 0, false
	}
	return c.far[0].at, true
}

// Len returns the number of pending items.
//
//vet:pure
func (c *Calendar[T]) Len() int { return c.wcount + len(c.far) }
