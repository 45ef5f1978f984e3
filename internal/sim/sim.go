// Package sim implements the execution-driven simulation kernel used by the
// z-machine reproduction. It plays the role of the SPASM framework from the
// paper: simulated processors run real Go code and trap into the simulator on
// every globally visible operation (shared memory access, synchronization).
//
// Each simulated processor is a goroutine coupled to the engine through
// channels so that exactly one goroutine runs at any instant. Every processor
// carries a local virtual clock; pure computation advances the clock without
// involving the scheduler, while globally visible operations first call Sync,
// which hands control back to the engine. The engine always resumes the
// runnable processor with the smallest clock (ties broken by processor id),
// so globally visible operations execute in nondecreasing virtual-time order
// and a simulation is deterministic and reproducible.
package sim

import (
	"fmt"
	"strings"

	"zsim/internal/metrics"
)

// Time is virtual time in CPU cycles.
type Time uint64

// Proc is a simulated processor. All methods must be called from the
// processor's own body function, except Unblock which is called by whichever
// processor performs the releasing action.
type Proc struct {
	id      int
	clock   Time
	eng     *Engine
	resume  chan struct{}
	blocked bool
	done    bool
	// blockReason is a human-readable label for deadlock reports.
	blockReason string
}

// ID returns the processor number in [0, NumProcs).
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the processor's local clock forward by c cycles of pure
// computation. It does not involve the scheduler: computation is only
// locally visible.
func (p *Proc) Advance(c Time) { p.clock += c }

// AdvanceTo moves the clock forward to t if t is in the future.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.clock {
		p.clock = t
	}
}

type yieldKind int

const (
	yieldRunnable yieldKind = iota // back on the run queue
	yieldBlocked                   // waiting for an Unblock
	yieldDone                      // body returned
	yieldPanicked                  // body panicked with val
)

type yieldMsg struct {
	p    *Proc
	kind yieldKind
	val  any // the panic value, for yieldPanicked
}

// Sync yields to the engine and returns when this processor is again the
// runnable processor with the smallest virtual clock. A processor must call
// Sync immediately before every globally visible operation; between Sync
// returning and the next yield no other processor runs, so the operation is
// atomic at the processor's current clock.
//
// Fast path: exactly one goroutine runs at a time, so if the caller's clock
// is still ahead of no runnable processor — it would be popped right back
// off the run queue — the two channel handoffs (yield + resume, two
// goroutine switches) are skipped entirely. The schedule is bit-identical
// to the slow path's: the engine would have resumed this processor next in
// either case, by the same (clock, id) order.
func (p *Proc) Sync() {
	e := p.eng
	if e.aborting {
		panic(abortRun{})
	}
	if len(e.runq) == 0 || procLess(p, e.runq[0]) {
		e.fastPathHits++
		return
	}
	e.yield <- yieldMsg{p: p, kind: yieldRunnable}
	<-p.resume
	if e.aborting {
		panic(abortRun{})
	}
}

// Block parks the processor until another processor calls Unblock on it.
// reason is reported if the simulation deadlocks.
func (p *Proc) Block(reason string) {
	if p.eng.aborting {
		panic(abortRun{})
	}
	p.blocked = true
	p.blockReason = reason
	p.eng.yield <- yieldMsg{p: p, kind: yieldBlocked}
	<-p.resume
	if p.eng.aborting {
		panic(abortRun{})
	}
}

// Unblock makes p runnable again, with its clock advanced to at least t
// (the virtual time of the releasing action). It must be called from the
// currently running processor's body (or from engine hooks); the engine is
// single-threaded so no locking is required.
func (p *Proc) Unblock(t Time) {
	if !p.blocked {
		if p.eng.aborting {
			// A deferred release during the teardown drain may target a
			// processor the engine has already forced out; let the unwind
			// proceed.
			return
		}
		panic(fmt.Sprintf("sim: Unblock of runnable processor %d", p.id))
	}
	p.blocked = false
	p.blockReason = ""
	p.AdvanceTo(t)
	p.eng.push(p)
}

// Blocked reports whether the processor is currently parked.
func (p *Proc) Blocked() bool { return p.blocked }

// abortRun is the sentinel panic used to unwind parked processor goroutines
// when a Run tears down after a deadlock or a panicking body; the
// per-processor wrappers recover it.
type abortRun struct{}

// Engine schedules a fixed set of simulated processors.
type Engine struct {
	procs []*Proc
	runq  procHeap
	yield chan yieldMsg
	// drained receives one signal per processor goroutine unwound by the
	// teardown; aborting makes Sync/Block panic(abortRun{}) instead of
	// yielding, so unwinding bodies can never wedge on engine channels.
	drained  chan struct{}
	aborting bool

	// Instrumentation: plain counts (the engine is single-threaded),
	// harvested into a metrics snapshot by PublishMetrics.
	switches     uint64   // processor resumptions (scheduling events)
	blocks       uint64   // Block calls observed
	fastPathHits uint64   // Sync calls that skipped the yield/resume handoff
	runqDepth    []uint64 // runqDepth[d]: pops that left d procs runnable
}

// RunqDepthBuckets are the inclusive upper bounds of the sim.runq_depth
// histogram: how many processors were runnable behind each scheduling pop.
var RunqDepthBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// PublishMetrics harvests the engine's plain instrumentation counts into s
// (implements metrics.Publisher). sim.yields is the total number of
// globally visible scheduling points: fast-path hits plus full handoffs.
func (e *Engine) PublishMetrics(s *metrics.Snapshot) {
	s.Add("sim.switches", e.switches)
	s.Add("sim.blocks", e.blocks)
	s.Add("sim.fastpath_hits", e.fastPathHits)
	s.Add("sim.yields", e.fastPathHits+e.switches)
	for d, n := range e.runqDepth {
		s.ObserveN("sim.runq_depth", RunqDepthBuckets, uint64(d), n)
	}
}

// NewEngine creates an engine with n processors, all with clock zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	e := &Engine{
		procs:     make([]*Proc, 0, n),
		runq:      make(procHeap, 0, n),
		yield:     make(chan yieldMsg),
		drained:   make(chan struct{}),
		runqDepth: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{id: i, eng: e, resume: make(chan struct{})})
	}
	return e
}

// NumProcs returns the number of processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

func (e *Engine) push(p *Proc) { e.runq.push(p) }

// Run executes body on every processor (as goroutines multiplexed onto this
// OS thread's attention one at a time) and returns the maximum finishing
// clock, i.e. the parallel execution time. Run panics with a state dump if
// the simulation deadlocks (all unfinished processors blocked). If a body
// panics, Run unwinds every other processor and re-panics the same value
// on the caller's goroutine, where it can be recovered.
func (e *Engine) Run(body func(p *Proc)) Time {
	e.aborting = false
	for _, p := range e.procs {
		p.clock = 0
		p.blocked = false
		p.done = false
	}
	e.runq = e.runq[:0]
	for _, p := range e.procs {
		p := p
		e.push(p)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortRun); ok || e.aborting {
						// Unwound by the teardown (a panic raised by a
						// body's defers mid-teardown is dropped with it).
						e.drained <- struct{}{}
						return
					}
					p.done = true
					e.yield <- yieldMsg{p: p, kind: yieldPanicked, val: r}
				}
			}()
			<-p.resume
			if e.aborting {
				panic(abortRun{})
			}
			body(p)
			p.done = true
			e.yield <- yieldMsg{p: p, kind: yieldDone}
		}()
	}
	remaining := len(e.procs)
	var finish Time
	for remaining > 0 {
		p, ok := e.runq.pop()
		if !ok {
			dump := e.stateDump()
			e.drain()
			panic("sim: deadlock\n" + dump)
		}
		e.switches++
		e.runqDepth[len(e.runq)]++
		p.resume <- struct{}{}
		m := <-e.yield
		switch m.kind {
		case yieldRunnable:
			e.push(m.p)
		case yieldBlocked:
			e.blocks++
			// Parked; an Unblock will re-queue it.
		case yieldDone:
			remaining--
			if m.p.clock > finish {
				finish = m.p.clock
			}
		case yieldPanicked:
			e.drain()
			panic(m.val)
		}
	}
	return finish
}

// drain unwinds every parked processor goroutine before a deadlock or
// body panic propagates out of Run, so repeated Run calls (callers
// recovering the panic) don't accumulate goroutines. Each parked
// processor is resumed in turn; Block or Sync (and any Sync/Block reached
// while its body's defers unwind) sees aborting and panics abortRun, which
// the goroutine wrapper recovers, signalling drained on its way out.
// Runnable processors, and those re-queued by deferred releases during the
// unwind, are drained from the run queue afterwards.
func (e *Engine) drain() {
	e.aborting = true
	for _, p := range e.procs {
		if !p.done && p.blocked {
			p.blocked = false
			p.resume <- struct{}{}
			<-e.drained
		}
	}
	for {
		p, ok := e.runq.pop()
		if !ok {
			break
		}
		if p.done {
			continue
		}
		p.resume <- struct{}{}
		<-e.drained
	}
	e.aborting = false
}

// Switches returns the number of scheduling events (processor
// resumptions) so far — a measure of how fine-grained the simulation's
// global operations are.
func (e *Engine) Switches() uint64 { return e.switches }

// Blocks returns the number of Block (park) events so far.
func (e *Engine) Blocks() uint64 { return e.blocks }

// FastPathHits returns the number of Sync calls that returned without a
// scheduler round-trip because the caller was still the minimum-clock
// runnable processor. Switches + FastPathHits is the total number of
// globally visible scheduling points.
func (e *Engine) FastPathHits() uint64 { return e.fastPathHits }

func (e *Engine) stateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  switches=%d fastpath=%d blocks=%d\n", e.switches, e.fastPathHits, e.blocks)
	// procs[i].id == i by construction, so the dump is already in id order.
	for _, p := range e.procs {
		switch {
		case p.done:
			fmt.Fprintf(&b, "  P%-2d done     clock=%d\n", p.id, p.clock)
		case p.blocked:
			fmt.Fprintf(&b, "  P%-2d blocked  clock=%d reason=%q\n", p.id, p.clock, p.blockReason)
		default:
			fmt.Fprintf(&b, "  P%-2d runnable clock=%d\n", p.id, p.clock)
		}
	}
	return b.String()
}
