package psync

import (
	"testing"

	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/shm"
)

func newM(t testing.TB, kind memsys.Kind) *machine.Machine {
	t.Helper()
	return machine.MustNew(kind, memsys.Default(16))
}

func TestLockMutualExclusion(t *testing.T) {
	m := newM(t, memsys.KindRCInv)
	l := NewLock(m)
	cell := shm.NewI64(m.Heap, 1)
	const perProc = 10
	m.Run("t", func(e *machine.Env) {
		for i := 0; i < perProc; i++ {
			l.Acquire(e)
			cell.Add(e, 0, 1)
			e.Compute(13)
			l.Release(e)
			e.Compute(7)
		}
	})
	if got := int64(m.PeekU64(cell.At(0))); got != 16*perProc {
		t.Fatalf("counter = %d, want %d (lost updates => broken mutual exclusion)", got, 16*perProc)
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	l := NewLock(m)
	var order []int
	m.Run("t", func(e *machine.Env) {
		e.Compute(machine.Time(e.ID())) // staggered arrivals: 0,1,2,...
		l.Acquire(e)
		order = append(order, e.ID())
		e.Compute(1000)
		l.Release(e)
	})
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order = %v, want FIFO by arrival", order)
		}
	}
}

// TestLockReleaseUnheldPanics: the misuse panic raised in a processor's
// body reaches the caller of Run.
func TestLockReleaseUnheldPanics(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	l := NewLock(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic releasing an unheld lock")
		}
	}()
	m.Run("t", func(e *machine.Env) {
		if e.ID() == 0 {
			l.Release(e)
		}
	})
}

func TestLockAccountsSyncWait(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	l := NewLock(m)
	res := m.Run("t", func(e *machine.Env) {
		l.Acquire(e)
		e.Compute(500)
		l.Release(e)
	})
	if res.TotalSyncWait() == 0 {
		t.Fatal("contended lock must accumulate sync wait")
	}
	// Sync wait is not an overhead: the overhead classes stay clean on PRAM.
	if res.TotalReadStall()+res.TotalWriteStall()+res.TotalBufferFlush() != 0 {
		t.Fatal("PRAM run must have zero overhead components")
	}
}

func TestLockReleaseFlushesRC(t *testing.T) {
	m := newM(t, memsys.KindRCInv)
	l := NewLock(m)
	a := m.Alloc(64)
	res := m.Run("t", func(e *machine.Env) {
		if e.ID() != 0 {
			return
		}
		l.Acquire(e)
		e.StoreU64(a, 7)
		l.Release(e) // release consistency: must drain the pending write
	})
	if res.Procs[0].BufferFlush == 0 {
		t.Fatal("unlock with a pending write must incur buffer flush")
	}
}

func TestBarrierRendezvous(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	b := NewBarrier(m)
	var minExit, maxArrive machine.Time
	m.Run("t", func(e *machine.Env) {
		e.Compute(machine.Time(100 * e.ID()))
		if e.Clock() > maxArrive {
			maxArrive = e.Clock()
		}
		b.Wait(e)
		if minExit == 0 || e.Clock() < minExit {
			minExit = e.Clock()
		}
	})
	if minExit < maxArrive {
		t.Fatalf("a processor left the barrier (t=%d) before the last arrival (t=%d)", minExit, maxArrive)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	b := NewBarrier(m)
	phase := make([]int, 16)
	m.Run("t", func(e *machine.Env) {
		for round := 0; round < 5; round++ {
			if phase[e.ID()] != round {
				t.Errorf("P%d entered round %d while at phase %d", e.ID(), round, phase[e.ID()])
			}
			phase[e.ID()]++
			e.Compute(machine.Time(e.ID()*10 + 1))
			b.Wait(e)
			// After the barrier every processor has finished this round
			// (it may already have started the next one).
			for p, ph := range phase {
				if ph < round+1 {
					t.Errorf("round %d: P%d saw P%d still at phase %d", round, e.ID(), p, ph)
				}
			}
		}
	})
}

func TestBarrierNPanics(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrierN(m, 0)
}

func TestFlagProducerConsumer(t *testing.T) {
	m := newM(t, memsys.KindRCUpd)
	f := NewFlag(m)
	a := m.Alloc(8)
	var got uint64
	m.Run("t", func(e *machine.Env) {
		switch e.ID() {
		case 0:
			e.Compute(5000)
			e.StoreU64(a, 77)
			f.Set(e) // release: the value is globally visible
		case 1:
			f.Wait(e)
			got = e.LoadU64(a)
		}
	})
	if got != 77 {
		t.Fatalf("consumer read %d, want 77", got)
	}
	if !f.IsSet() {
		t.Fatal("flag should be set")
	}
}

func TestFlagWaitAfterSet(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	f := NewFlag(m)
	m.Run("t", func(e *machine.Env) {
		if e.ID() == 0 {
			f.Set(e)
		} else {
			e.Compute(100000)
			f.Wait(e) // long after Set: no blocking path
		}
	})
}

func TestFlagReset(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	f := NewFlag(m)
	m.Run("t", func(e *machine.Env) {
		if e.ID() == 0 {
			f.Set(e)
		}
	})
	f.Reset()
	if f.IsSet() {
		t.Fatal("flag still set after Reset")
	}
}

func TestCounter(t *testing.T) {
	m := newM(t, memsys.KindRCInv)
	c := NewCounter(m, 5)
	m.Run("t", func(e *machine.Env) {
		c.Add(e, 2)
	})
	if got := int64(m.PeekU64(c.cell.At(0))); got != 5+32 {
		t.Fatalf("counter = %d, want 37", got)
	}
}

func TestQueueFIFO(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	q := NewQueue(m, 64)
	var got []int64
	m.Run("t", func(e *machine.Env) {
		if e.ID() == 0 {
			for i := int64(1); i <= 5; i++ {
				if !q.Push(e, i) {
					t.Error("push failed on non-full queue")
				}
			}
			for {
				v, ok := q.TryPop(e)
				if !ok {
					break
				}
				got = append(got, v)
			}
		}
	})
	if len(got) != 5 {
		t.Fatalf("popped %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("order = %v, want FIFO", got)
		}
	}
}

func TestQueueFullAndEmpty(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	q := NewQueue(m, 2)
	m.Run("t", func(e *machine.Env) {
		if e.ID() != 0 {
			return
		}
		if _, ok := q.TryPop(e); ok {
			t.Error("pop of empty queue succeeded")
		}
		if !q.Push(e, 1) || !q.Push(e, 2) {
			t.Error("push to non-full queue failed")
		}
		if q.Push(e, 3) {
			t.Error("push to full queue succeeded")
		}
		if q.Len(e) != 2 {
			t.Errorf("Len = %d, want 2", q.Len(e))
		}
	})
}

func TestQueueConcurrentWorkConservation(t *testing.T) {
	m := newM(t, memsys.KindRCInv)
	q := NewQueue(m, 1024)
	popped := make([]int, 16)
	m.Run("t", func(e *machine.Env) {
		// Every processor pushes 8 items then drains whatever it can.
		for i := 0; i < 8; i++ {
			q.Push(e, int64(e.ID()*100+i))
			e.Compute(50)
		}
		for {
			_, ok := q.TryPop(e)
			if !ok {
				break
			}
			popped[e.ID()]++
			e.Compute(20)
		}
	})
	total := 0
	for _, n := range popped {
		total += n
	}
	if total != 16*8 {
		t.Fatalf("popped %d items, want %d (work lost or duplicated)", total, 16*8)
	}
}

func TestQueueCapPanics(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue(m, 0)
}

func TestFlagWakesAllWaiters(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	f := NewFlag(m)
	woken := 0
	m.Run("t", func(e *machine.Env) {
		if e.ID() == 15 {
			e.Compute(10000)
			f.Set(e)
			return
		}
		f.Wait(e)
		if e.Clock() < 10000 {
			t.Errorf("P%d woke at %d, before the set", e.ID(), e.Clock())
		}
		woken++
	})
	if woken != 15 {
		t.Fatalf("woken = %d, want 15", woken)
	}
}

func TestQueueWrapsAroundManyTimes(t *testing.T) {
	m := newM(t, memsys.KindPRAM)
	q := NewQueue(m, 3) // tiny ring, forced to wrap
	var popped []int64
	m.Run("t", func(e *machine.Env) {
		if e.ID() != 0 {
			return
		}
		for round := int64(0); round < 10; round++ {
			for k := int64(0); k < 3; k++ {
				if !q.Push(e, round*3+k) {
					t.Error("push failed")
				}
			}
			for k := 0; k < 3; k++ {
				v, ok := q.TryPop(e)
				if !ok {
					t.Error("pop failed")
				}
				popped = append(popped, v)
			}
		}
	})
	for i, v := range popped {
		if v != int64(i) {
			t.Fatalf("FIFO violated across wraparound: popped[%d] = %d", i, v)
		}
	}
}

func TestLockFreeAtWatermarkUnderRCSync(t *testing.T) {
	// An uncontended lock on rcsync: a later acquirer must not observe the
	// lock free before the previous holder's writes are performed.
	m := newM(t, memsys.KindRCSync)
	l := NewLock(m)
	a := m.Alloc(64)
	var relClock, acqClock machine.Time
	m.Run("t", func(e *machine.Env) {
		switch e.ID() {
		case 0:
			l.Acquire(e)
			e.StoreU64(a, 7) // pending write retires in the background
			l.Release(e)
			relClock = e.Clock() // producer did NOT stall
		case 1:
			e.Compute(20) // arrive slightly later, contend
			l.Acquire(e)
			acqClock = e.Clock()
			if got := e.LoadU64(a); got != 7 {
				t.Errorf("consumer read %d before the write performed", got)
			}
			l.Release(e)
		}
	})
	if acqClock <= relClock {
		t.Fatalf("grant at %d should be after the (non-stalling) release at %d", acqClock, relClock)
	}
}
