package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"zsim/internal/memsys"
)

func TestInfiniteInsertLookup(t *testing.T) {
	c := NewInfinite()
	if _, ok := c.Lookup(7); ok {
		t.Fatal("empty cache should miss")
	}
	l, _, _, ev := c.Insert(7)
	if ev {
		t.Fatal("infinite cache must never evict")
	}
	l.State = Modified
	got, ok := c.Lookup(7)
	if !ok || got.State != Modified {
		t.Fatalf("lookup after insert: ok=%v state=%v", ok, got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestInfiniteInsertIdempotent(t *testing.T) {
	c := NewInfinite()
	l1, _, _, _ := c.Insert(3)
	l1.State = Modified
	l2, _, _, _ := c.Insert(3)
	if l2.State != Modified {
		t.Fatal("re-insert must return the existing line, not reset it")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestInfiniteInvalidate(t *testing.T) {
	c := NewInfinite()
	c.Insert(9)
	c.Invalidate(9)
	if _, ok := c.Lookup(9); ok {
		t.Fatal("line present after invalidate")
	}
	c.Invalidate(9) // idempotent
}

func TestInfiniteForEach(t *testing.T) {
	c := NewInfinite()
	for i := memsys.Addr(0); i < 10; i++ {
		c.Insert(i)
	}
	seen := map[memsys.Addr]bool{}
	c.ForEach(func(a memsys.Addr, _ *Line) { seen[a] = true })
	if len(seen) != 10 {
		t.Fatalf("ForEach visited %d lines, want 10", len(seen))
	}
}

func TestFiniteEvictsLRU(t *testing.T) {
	c := NewFinite(2, 2) // one set, two ways
	c.Insert(0)
	c.Insert(1)
	c.Touch(0) // 0 is now most recent
	_, victim, _, ev := c.Insert(2)
	if !ev || victim != 1 {
		t.Fatalf("evicted=%v victim=%d, want eviction of line 1", ev, victim)
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("evicted line still resident")
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("recently used line was evicted")
	}
}

func TestFiniteVictimStateReported(t *testing.T) {
	c := NewFinite(1, 1)
	l, _, _, _ := c.Insert(0)
	l.State = Modified
	_, victim, vstate, ev := c.Insert(1)
	if !ev || victim != 0 || vstate != Modified {
		t.Fatalf("ev=%v victim=%d state=%v, want dirty eviction of line 0", ev, victim, vstate)
	}
}

func TestFiniteSetIsolation(t *testing.T) {
	c := NewFinite(4, 1)       // 4 direct-mapped sets
	c.Insert(0)                // set 0
	c.Insert(1)                // set 1
	_, _, _, ev := c.Insert(5) // set 1: evicts 1, not 0
	if !ev {
		t.Fatal("conflict in set 1 should evict")
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("line in a different set was disturbed")
	}
}

func TestFiniteInvalidateFreesWay(t *testing.T) {
	c := NewFinite(1, 1)
	c.Insert(0)
	c.Invalidate(0)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after invalidate, want 0", c.Len())
	}
	_, _, _, ev := c.Insert(1)
	if ev {
		t.Fatal("insert into freed way should not evict")
	}
}

func TestFiniteReinsertKeepsMetadata(t *testing.T) {
	c := NewFinite(4, 2)
	l, _, _, _ := c.Insert(0)
	l.Updates = 3
	l2, _, _, ev := c.Insert(0)
	if ev || l2.Updates != 3 {
		t.Fatalf("re-insert reset metadata: ev=%v updates=%d", ev, l2.Updates)
	}
}

// TestFiniteHugeShapeIsLazy: the configured size is a client-supplied
// bound, not an allocation size. A 2^40-line direct-mapped cache is cheap
// to build, allocates memory only for the sets it touches, and still maps
// lines 2^40 apart onto the same set.
func TestFiniteHugeShapeIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewFinite(1<<40, 1)
	for l := memsys.Addr(0); l < 1000; l++ {
		c.Insert(l)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("building and filling 1000 sets of a 2^40-line cache allocated %d bytes, want under 1 MiB", got)
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	_, victim, _, ev := c.Insert(1<<40 + 7)
	if !ev || victim != 7 {
		t.Fatalf("evicted=%v victim=%d, want line 7 displaced from its set", ev, victim)
	}
	n := 0
	c.ForEach(func(memsys.Addr, *Line) { n++ })
	if n != 1000 {
		t.Fatalf("ForEach visited %d lines, want 1000", n)
	}
}

func TestNewFinitePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFinite(10, 4)
}

// Property: a finite cache never exceeds its capacity and Len matches the
// number of lines ForEach visits.
func TestFiniteCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewFinite(16, 4)
		for _, a := range addrs {
			c.Insert(memsys.Addr(a))
		}
		if c.Len() > 16 {
			return false
		}
		n := 0
		c.ForEach(func(memsys.Addr, *Line) { n++ })
		return n == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Insert(a), Lookup(a) hits, for both variants.
func TestInsertThenLookupProperty(t *testing.T) {
	f := func(a uint32, finiteCache bool) bool {
		var c Cache
		if finiteCache {
			c = NewFinite(64, 4)
		} else {
			c = NewInfinite()
		}
		c.Insert(memsys.Addr(a))
		_, ok := c.Lookup(memsys.Addr(a))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The finite cache must behave identically to the infinite cache while the
// working set fits.
func TestFiniteMatchesInfiniteWhenFitting(t *testing.T) {
	fin := NewFinite(256, 4)
	inf := NewInfinite()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a := memsys.Addr(rng.Intn(64)) // 64 distinct lines < 256, and < 4 per set
		switch rng.Intn(3) {
		case 0:
			fin.Insert(a)
			inf.Insert(a)
		case 1:
			_, h1 := fin.Lookup(a)
			_, h2 := inf.Lookup(a)
			if h1 != h2 {
				t.Fatalf("step %d: finite hit=%v infinite hit=%v for line %d", i, h1, h2, a)
			}
		case 2:
			fin.Invalidate(a)
			inf.Invalidate(a)
		}
	}
	if fin.Len() != inf.Len() {
		t.Fatalf("Len: finite=%d infinite=%d", fin.Len(), inf.Len())
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(99).String() != "?" {
		t.Fatal("unknown state should print ?")
	}
}

// A Line is the infinite cache's whole slot: residency is State != Invalid,
// with no separate valid bit, so the slot stays four words.
func TestLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Fatalf("sizeof(Line) = %d, want 32", got)
	}
}

// Invalidate must hide a line whatever metadata it carried, and a re-insert
// must start the line over as a fresh Shared copy, on both implementations.
func TestInvalidateClearsResidencyAndReinsertResets(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Cache
	}{{"infinite", NewInfinite()}, {"finite", NewFinite(64, 4)}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			const a = memsys.Addr(300) // off the first 256-slot page
			c.Insert(a + 1)
			l, _, _, _ := c.Insert(a)
			l.State = Modified
			l.ReadyAt = 77
			l.Updates = 3
			l.Version = 9
			c.Invalidate(a)
			if _, ok := c.Lookup(a); ok {
				t.Fatal("Lookup hit an invalidated line")
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d after invalidate, want 1", c.Len())
			}
			c.ForEach(func(line memsys.Addr, _ *Line) {
				if line == a {
					t.Fatal("ForEach visited an invalidated line")
				}
			})
			l, _, _, _ = c.Insert(a)
			if *l != (Line{State: Shared}) {
				t.Fatalf("re-inserted line = %+v, want a fresh Shared line", *l)
			}
			if c.Len() != 2 {
				t.Fatalf("Len = %d after re-insert, want 2", c.Len())
			}
		})
	}
}
