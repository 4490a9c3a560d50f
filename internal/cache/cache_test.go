package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
)

func smallCache() *Cache {
	// 4 sets x 2 ways.
	return New(Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2})
}

// lineInSet returns the i-th line that maps to the given set.
func lineInSet(c *Cache, set, i int) addrspace.Line {
	return addrspace.Line(set + i*c.Sets())
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeBytes: 64 << 10, Ways: 2}
	if cfg.Sets() != 512 {
		t.Fatalf("sets = %d", cfg.Sets())
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	Config{SizeBytes: 100, Ways: 3}.Sets()
}

func TestInstallLookup(t *testing.T) {
	c := smallCache()
	var words [addrspace.WordsPerLine]uint64
	words[3] = 42
	c.Install(5, Shared, words)
	ln := c.Lookup(5)
	if ln == nil || ln.State != Shared || ln.Words[3] != 42 {
		t.Fatal("install/lookup failed")
	}
	if c.Lookup(6) != nil {
		t.Fatal("phantom line")
	}
}

func TestInstallReusesResidentSlot(t *testing.T) {
	c := smallCache()
	c.Install(5, Shared, [addrspace.WordsPerLine]uint64{1})
	before := c.CountValid()
	c.Install(5, Modified, [addrspace.WordsPerLine]uint64{2})
	if c.CountValid() != before {
		t.Fatal("reinstall grew the cache")
	}
	ln := c.Lookup(5)
	if ln.State != Modified || ln.Words[0] != 2 {
		t.Fatal("reinstall did not update in place")
	}
}

func TestLRUVictim(t *testing.T) {
	c := smallCache()
	a, b, d := lineInSet(c, 0, 0), lineInSet(c, 0, 1), lineInSet(c, 0, 2)
	c.Install(a, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	// Touch a so b becomes LRU.
	c.Touch(a)
	v, ok := c.Victim(d)
	if !ok || v == nil || v.Addr != b {
		t.Fatalf("victim = %+v, want line %d", v, b)
	}
}

func TestVictimFreeWay(t *testing.T) {
	c := smallCache()
	c.Install(lineInSet(c, 1, 0), Shared, [addrspace.WordsPerLine]uint64{})
	v, ok := c.Victim(lineInSet(c, 1, 1))
	if !ok || v != nil {
		t.Fatal("expected free way")
	}
}

func TestVictimSkipsPinned(t *testing.T) {
	c := smallCache()
	a, b, d := lineInSet(c, 2, 0), lineInSet(c, 2, 1), lineInSet(c, 2, 2)
	la := c.Install(a, Modified, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	c.Touch(b)
	la.NonEvict = true // a is LRU but pinned
	v, ok := c.Victim(d)
	if !ok || v == nil || v.Addr != b {
		t.Fatalf("pinned line not skipped: %+v", v)
	}
}

func TestVictimAllPinned(t *testing.T) {
	c := smallCache()
	la := c.Install(lineInSet(c, 3, 0), Modified, [addrspace.WordsPerLine]uint64{})
	lb := c.Install(lineInSet(c, 3, 1), Modified, [addrspace.WordsPerLine]uint64{})
	la.NonEvict = true
	lb.NonEvict = true
	if _, ok := c.Victim(lineInSet(c, 3, 2)); ok {
		t.Fatal("fully pinned set reported a victim")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Install(9, Exclusive, [addrspace.WordsPerLine]uint64{7})
	old, ok := c.Invalidate(9)
	if !ok || old.Words[0] != 7 {
		t.Fatal("invalidate did not return contents")
	}
	if c.Lookup(9) != nil {
		t.Fatal("line survived invalidation")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate returned a line")
	}
}

func TestTouchUpdatesLRU(t *testing.T) {
	c := smallCache()
	a, b := lineInSet(c, 0, 0), lineInSet(c, 0, 1)
	c.Install(a, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	c.Touch(a) // now b is oldest
	v, _ := c.Victim(lineInSet(c, 0, 2))
	if v.Addr != b {
		t.Fatal("touch did not refresh LRU")
	}
	if c.Touch(lineInSet(c, 0, 3)) != nil {
		t.Fatal("touch of absent line returned a slot")
	}
}

func TestForEachAndCount(t *testing.T) {
	c := smallCache()
	c.Install(1, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(2, Modified, [addrspace.WordsPerLine]uint64{})
	n := 0
	c.ForEach(func(ln *Line) { n++ })
	if n != 2 || c.CountValid() != 2 {
		t.Fatalf("count = %d/%d", n, c.CountValid())
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Wireless: "W",
	} {
		if st.String() != want {
			t.Errorf("%v != %s", st, want)
		}
	}
	if Invalid.Valid() || !Wireless.Valid() {
		t.Fatal("Valid() wrong")
	}
}

// TestResidencyProperty: after any sequence of installs and
// invalidations, Lookup agrees with the shadow model for the touched
// lines, and the per-set way count never exceeds associativity.
func TestResidencyProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		c := smallCache()
		shadow := map[addrspace.Line]bool{}
		for _, op := range ops {
			line := addrspace.Line(op % 32)
			if op&0x8000 != 0 {
				c.Invalidate(line)
				shadow[line] = false
			} else {
				c.Install(line, Shared, [addrspace.WordsPerLine]uint64{})
				shadow[line] = true
				// Installing may evict others in the same set.
				for l, res := range shadow {
					if res && l != line && c.Lookup(l) == nil {
						shadow[l] = false
					}
				}
			}
		}
		for l, res := range shadow {
			got := c.Lookup(l) != nil
			if got != res {
				return false
			}
		}
		// Way-count invariant.
		per := map[int]int{}
		c.ForEach(func(ln *Line) { per[int(uint64(ln.Addr)%uint64(c.Sets()))]++ })
		for _, n := range per {
			if n > c.Ways() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLineSize pins the packed layout of Line: every L1 holds one Line
// per way in a flat array, so padding here is paid per cached line
// across the whole machine.
func TestLineSize(t *testing.T) {
	if got := reflect.TypeOf(Line{}).Size(); got > 96 {
		t.Fatalf("cache.Line is %d bytes, want <= 96 (keep word-sized fields first, 1-byte fields last)", got)
	}
}
