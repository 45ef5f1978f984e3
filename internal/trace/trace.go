// Package trace records the globally visible events of a simulation — shared
// reads and writes with their stalls, and synchronization releases — into a
// bounded ring buffer. Tracing is how one debugs an application's sharing
// pattern: dump the tail, see which addresses ping-pong, who produced a value
// a consumer stalled on, and where releases flush.
//
// The recorder costs nothing when disabled (a nil *Recorder records nothing),
// and a bounded ring when enabled, so it can stay attached to long runs.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"zsim/internal/memsys"
)

// Kind is the event type.
type Kind uint8

const (
	// Read is a shared load.
	Read Kind = iota
	// Write is a shared store.
	Write
	// Release is a release-type synchronization point (unlock, barrier
	// arrival).
	Release
	// Acquire is an acquire-type synchronization point.
	Acquire
	// LockAcq is a lock grant (recorded by the new holder). Obj identifies
	// the lock.
	LockAcq
	// LockRel is a lock release. Obj identifies the lock; Value carries the
	// time by which the holder's prior writes are globally performed (the
	// release watermark a conformance checker validates handoffs against).
	LockRel
	// BarArrive is a barrier arrival. Obj identifies the barrier; Value
	// carries the participant count.
	BarArrive
	// BarDepart is a barrier exit. Obj identifies the barrier; Value carries
	// the participant count.
	BarDepart
	// FlagSet is a producer-consumer flag being raised. Obj identifies the
	// flag; Value carries the time the flag (and the setter's prior writes)
	// becomes observable.
	FlagSet
	// FlagWait is a completed wait on a flag. Obj identifies the flag.
	FlagWait
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Release:
		return "rel"
	case Acquire:
		return "acq"
	case LockAcq:
		return "l+"
	case LockRel:
		return "l-"
	case BarArrive:
		return "b>"
	case BarDepart:
		return "b<"
	case FlagSet:
		return "f+"
	case FlagWait:
		return "f?"
	}
	return "?"
}

// Event is one recorded simulation event.
type Event struct {
	At    memsys.Time // issue time (processor's virtual clock)
	Proc  int         // issuing execution stream
	Kind  Kind
	Addr  memsys.Addr // meaningful for Read/Write
	Stall memsys.Time // cycles the processor waited
	// Value is kind-dependent: the datum read or written (Read/Write), the
	// release watermark (Release/LockRel/FlagSet), or the participant count
	// (BarArrive/BarDepart).
	Value uint64
	// Obj identifies the synchronization object of a sync event (lock,
	// barrier, or flag id assigned by the machine); 0 for memory events.
	Obj int32
}

func (e Event) String() string {
	switch e.Kind {
	case Read, Write:
		return fmt.Sprintf("%10d P%-2d %-3s %#08x stall=%d val=%d", e.At, e.Proc, e.Kind, e.Addr, e.Stall, e.Value)
	case LockAcq, LockRel, BarArrive, BarDepart, FlagSet, FlagWait:
		return fmt.Sprintf("%10d P%-2d %-3s obj=%d val=%d", e.At, e.Proc, e.Kind, e.Obj, e.Value)
	}
	return fmt.Sprintf("%10d P%-2d %-3s stall=%d", e.At, e.Proc, e.Kind, e.Stall)
}

// Recorder is a bounded ring buffer of events. A nil Recorder is valid and
// records nothing.
type Recorder struct {
	buf   []Event
	next  int
	total uint64
}

// New returns a recorder keeping the last cap events.
func New(cap int) *Recorder {
	if cap <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Recorder{buf: make([]Event, 0, cap)}
}

// Record appends an event (dropping the oldest beyond capacity).
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns the number of events ever recorded (including dropped ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// HotLines aggregates the retained events by cache line (of the given size)
// and returns the top-n lines by total stall — the first place to look for
// ping-ponging data.
func (r *Recorder) HotLines(lineSize, n int) []HotLine {
	if r == nil {
		return nil
	}
	agg := map[memsys.Addr]*HotLine{}
	for _, ev := range r.Events() {
		if ev.Kind != Read && ev.Kind != Write {
			continue
		}
		line := memsys.Line(ev.Addr, lineSize)
		h, ok := agg[line]
		if !ok {
			h = &HotLine{Line: line}
			agg[line] = h
		}
		h.Accesses++
		h.Stall += ev.Stall
	}
	lines := make([]memsys.Addr, 0, len(agg))
	for line := range agg {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	out := make([]HotLine, 0, len(agg))
	for _, line := range lines {
		out = append(out, *agg[line])
	}
	// Selection sort of the top n (n is small).
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Stall > out[best].Stall ||
				(out[j].Stall == out[best].Stall && out[j].Line < out[best].Line) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:n]
}

// HotLine is a per-line access/stall aggregate.
type HotLine struct {
	Line     memsys.Addr
	Accesses int
	Stall    memsys.Time
}

func (h HotLine) String() string {
	return fmt.Sprintf("line %#08x: %d accesses, %d stall cycles", h.Line, h.Accesses, h.Stall)
}
