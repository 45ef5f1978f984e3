package wbuffer

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"zsim/internal/memsys"
)

func TestReserveFreeWhenEmpty(t *testing.T) {
	b := NewStore(4)
	if s := b.Reserve(10); s != 0 {
		t.Fatalf("stall = %d on empty buffer, want 0", s)
	}
	b.Add(20)
	if b.Pending(10) != 1 {
		t.Fatal("entry not recorded")
	}
}

func TestReserveStallsWhenFull(t *testing.T) {
	b := NewStore(2)
	b.Add(100)
	b.Add(50)
	stall := b.Reserve(10)
	if stall != 40 { // waits for the earliest (50) from now=10
		t.Fatalf("stall = %d, want 40", stall)
	}
	// The earliest entry retired; one slot free, the 100 entry remains.
	if got := b.Pending(50); got != 1 {
		t.Fatalf("pending = %d after stall, want 1", got)
	}
}

func TestEntriesRetireWithTime(t *testing.T) {
	b := NewStore(2)
	b.Add(30)
	b.Add(40)
	if s := b.Reserve(35); s != 0 {
		t.Fatalf("stall = %d, want 0: entry at 30 already retired", s)
	}
}

func TestDrainStall(t *testing.T) {
	b := NewStore(4)
	b.Add(100)
	b.Add(70)
	if s := b.DrainStall(60); s != 40 {
		t.Fatalf("drain stall = %d, want 40", s)
	}
	if b.Pending(0) != 0 {
		t.Fatal("buffer not empty after drain")
	}
	if s := b.DrainStall(60); s != 0 {
		t.Fatalf("drain of empty buffer = %d, want 0", s)
	}
}

func TestDrainStallPastCompletion(t *testing.T) {
	b := NewStore(4)
	b.Add(10)
	if s := b.DrainStall(50); s != 0 {
		t.Fatalf("drain stall = %d, want 0 when all retired", s)
	}
}

func TestAddWithoutSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewStore(1)
	b.Add(10)
	b.Add(20)
}

// Property: with capacity c, after any sequence of Reserve(now)+Add the
// number pending never exceeds c, and Reserve's stall is exactly the gap to
// the earliest completion when full.
func TestStoreOccupancyProperty(t *testing.T) {
	f := func(deltas []uint8) bool {
		b := NewStore(4)
		var now memsys.Time
		for _, d := range deltas {
			now += memsys.Time(d % 16)
			stall := b.Reserve(now)
			now += stall
			b.Add(now + memsys.Time(d%32) + 1)
			if b.Pending(now) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCombines(t *testing.T) {
	m := NewMerge(1)
	if v, ev := m.Put(5); ev {
		t.Fatalf("first put evicted %d", v)
	}
	if !m.Contains(5) {
		t.Fatal("line not merging after Put")
	}
	if _, ev := m.Put(5); ev {
		t.Fatal("put of merging line must combine, not evict")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMergeEvictsOldestFIFO(t *testing.T) {
	m := NewMerge(2)
	m.Put(1)
	m.Put(2)
	v, ev := m.Put(3)
	if !ev || v != 1 {
		t.Fatalf("evicted=%v victim=%d, want oldest line 1", ev, v)
	}
	if m.Contains(1) || !m.Contains(2) || !m.Contains(3) {
		t.Fatal("contents wrong after eviction")
	}
}

func TestMergeFlush(t *testing.T) {
	m := NewMerge(3)
	m.Put(7)
	m.Put(8)
	lines := m.Flush()
	if len(lines) != 2 || lines[0] != 7 || lines[1] != 8 {
		t.Fatalf("flush = %v, want [7 8]", lines)
	}
	if m.Len() != 0 {
		t.Fatal("buffer not empty after flush")
	}
	if got := m.Flush(); len(got) != 0 {
		t.Fatal("second flush should be empty")
	}
}

// Property: the merge buffer never exceeds capacity and never holds
// duplicates.
func TestMergeInvariantProperty(t *testing.T) {
	f := func(lines []uint8) bool {
		m := NewMerge(3)
		for _, l := range lines {
			m.Put(memsys.Addr(l % 8))
			if m.Len() > 3 {
				return false
			}
		}
		seen := map[memsys.Addr]bool{}
		for _, l := range m.Flush() {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){func() { NewStore(0) }, func() { NewMerge(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestWatermark(t *testing.T) {
	b := NewStore(4)
	if wm := b.Watermark(50); wm != 50 {
		t.Fatalf("empty watermark = %d, want now", wm)
	}
	b.Add(70)
	b.Add(120)
	if wm := b.Watermark(50); wm != 120 {
		t.Fatalf("watermark = %d, want 120", wm)
	}
	// Watermark must not drain.
	if b.Pending(50) != 2 {
		t.Fatal("watermark drained the buffer")
	}
	// Past the last completion it degenerates to now.
	if wm := b.Watermark(200); wm != 200 {
		t.Fatalf("late watermark = %d, want 200", wm)
	}
}

// sink keeps constructed buffers reachable so their allocation is real.
var sink any

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoreHugeCapacityIsLazy: the configured depth is a client-supplied
// bound, not an allocation size. A 2^40-entry buffer is as cheap to build
// as a 4-entry one, and its occupancy counts grow only as deep as the
// entries actually in flight.
func TestStoreHugeCapacityIsLazy(t *testing.T) {
	if got := allocBytes(func() { sink = NewStore(1 << 40) }); got > 1<<10 {
		t.Fatalf("NewStore(1<<40) allocated %d bytes, want under 1 KiB", got)
	}
	b := NewStore(1 << 40)
	if occ := b.Stats().Occupancy; len(occ) != 0 {
		t.Fatalf("fresh buffer occupancy = %v, want empty", occ)
	}
	for i := 0; i < 3; i++ {
		if stall := b.Reserve(0); stall != 0 {
			t.Fatalf("reserve %d stalled %d cycles in a buffer far from full", i, stall)
		}
		b.Add(100)
	}
	b.DrainStall(0)
	b.Reserve(200)
	if occ := b.Stats().Occupancy; !reflect.DeepEqual(occ, []uint64{2, 1, 1}) {
		t.Fatalf("occupancy = %v, want [2 1 1]", occ)
	}
}
