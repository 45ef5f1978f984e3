// Package runner executes grids of independent simulations on a bounded
// worker pool while preserving serial semantics. The paper's evaluation is
// a matrix of independent, deterministic cells (application × memory
// system × parameter point); each cell builds its own machine, so cells
// may run on separate host cores. Results are collected by cell index and
// assembled only after every cell finishes, which makes every output —
// tables, figures, error reporting — byte-identical regardless of the
// worker count.
package runner

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zsim/internal/metrics"
)

// parallelism bounds the number of concurrently running cells. It defaults
// to GOMAXPROCS: one simulation per host core. 1 means serial.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// Parallelism returns the current worker bound used by Grid.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism sets the worker bound for subsequent Grid calls and
// returns the previous bound. n < 1 selects GOMAXPROCS.
func SetParallelism(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(parallelism.Swap(int64(n)))
}

// CellWallBuckets are the inclusive upper bounds (in milliseconds) of the
// runner.cell_wall_ms histogram. Cell wall time is host-side accounting:
// it varies with the machine and the -parallel setting, unlike every
// simulated metric.
var CellWallBuckets = []uint64{1, 5, 10, 25, 50, 100, 250, 1000}

// gridMetrics is one grid's host-side accounting, kept local to the grid
// and merged into metrics.Default once the pool has drained. Each slot is
// written by exactly one worker, so only the busy level is shared.
type gridMetrics struct {
	busy   atomic.Int64 // workers currently running a cell
	peak   []int64      // peak[w]: highest busy level worker w saw on starting a cell
	wallMS []uint64     // wallMS[i]: host wall time of cell i
}

// run executes cell i on worker w with wall-time and occupancy accounting.
func (g *gridMetrics) run(w, i int, do func()) {
	if g == nil {
		do()
		return
	}
	g.peak[w] = max(g.peak[w], g.busy.Add(1))
	start := time.Now()
	do()
	g.wallMS[i] = uint64(time.Since(start).Milliseconds())
	g.busy.Add(-1)
}

// publish merges the grid's totals into metrics.Default. The busy level
// has drained back to zero, so the gauge's value is 0 and its max the peak.
func (g *gridMetrics) publish() {
	if g == nil {
		return
	}
	s := metrics.Snapshot{
		Counters: map[string]uint64{"runner.grids": 1, "runner.cells": uint64(len(g.wallMS))},
		Gauges:   map[string]metrics.GaugeSnapshot{"runner.workers_busy": {Max: slices.Max(g.peak)}},
	}
	for _, ms := range g.wallMS {
		s.ObserveN("runner.cell_wall_ms", CellWallBuckets, ms, 1)
	}
	metrics.Default.Merge(s)
}

// Grid runs cell(0), ..., cell(n-1) on up to Parallelism() workers and
// returns the n results indexed by cell. The outcome is independent of the
// worker count:
//
//   - results are collected by index, so assembly order equals serial order;
//   - every cell runs even when another cell fails, so the pool always
//     drains, and the returned error is the failing cell with the smallest
//     index — exactly the error a serial left-to-right run would surface;
//   - a panicking cell cannot wedge the pool: workers capture the panic,
//     the remaining cells still run, and the smallest-index panic is
//     re-raised in the caller once the pool has drained.
//
// Cells must be independent (no shared mutable state); each should build
// its own machine. With metrics enabled when Grid is called, the grid's
// host-side metrics (runner.*) are merged into metrics.Default once every
// cell has run.
func Grid[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)
	workers := max(min(Parallelism(), n), 1)
	var gm *gridMetrics
	if metrics.Enabled() {
		gm = &gridMetrics{peak: make([]int64, workers), wallMS: make([]uint64, n)}
	}
	if workers == 1 {
		// Serial: run in the caller's goroutine. Every cell still runs on
		// error or panic so the outcome matches the pooled path's.
		for i := 0; i < n; i++ {
			gm.run(0, i, func() { runCell(cell, i, results, errs, panics) })
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					gm.run(w, i, func() { runCell(cell, i, results, errs, panics) })
				}
			}()
		}
		wg.Wait()
	}
	gm.publish()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	return results, firstError(errs)
}

// runCell executes one cell, capturing a panic so the worker survives to
// drain its remaining cells.
func runCell[T any](cell func(i int) (T, error), i int, results []T, errs []error, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	results[i], errs[i] = cell(i)
}

// firstError returns the smallest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
