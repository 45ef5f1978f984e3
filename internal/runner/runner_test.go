package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

// withParallelism runs f with the pool bound set to n, restoring the
// previous bound afterwards.
func withParallelism(n int, f func()) {
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(7)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 7 {
		t.Fatalf("Parallelism() = %d, want 7", got)
	}
	if old := SetParallelism(0); old != 7 {
		t.Fatalf("SetParallelism returned %d, want 7", old)
	}
	if got := Parallelism(); got < 1 {
		t.Fatalf("SetParallelism(0) left bound %d, want >= 1 (GOMAXPROCS)", got)
	}
}

// TestGridCollectsByIndex checks results land at their cell index for both
// the serial and the pooled path.
func TestGridCollectsByIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8, 64} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				got, err := Grid(100, func(i int) (int, error) { return i * i, nil })
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if v != i*i {
						t.Fatalf("cell %d = %d, want %d", i, v, i*i)
					}
				}
			})
		})
	}
}

// TestGridErrorDrainsPool injects an erroring cell and verifies the pool
// drains cleanly (every other cell still runs, no deadlock) and that the
// smallest-index error is the one surfaced, independent of worker count.
func TestGridErrorDrainsPool(t *testing.T) {
	bang7 := errors.New("cell 7 exploded")
	bang3 := errors.New("cell 3 exploded")
	for _, par := range []int{1, 4, 16} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				ran := make([]bool, 32)
				_, err := Grid(32, func(i int) (int, error) {
					ran[i] = true
					switch i {
					case 7:
						return 0, bang7
					case 3:
						// The later-scheduled of the two errors under most
						// interleavings, but the earlier index: it must win.
						time.Sleep(time.Millisecond)
						return 0, bang3
					}
					return i, nil
				})
				if !errors.Is(err, bang3) {
					t.Fatalf("err = %v, want smallest-index error %v", err, bang3)
				}
				for i, r := range ran {
					if !r {
						t.Fatalf("cell %d never ran after another cell errored", i)
					}
				}
			})
		})
	}
}

// TestGridPanicDrainsPool checks a panicking cell is re-raised in the
// caller only after the pool has drained.
func TestGridPanicDrainsPool(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				ran := make([]bool, 16)
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("expected the cell panic to propagate")
					}
					if fmt.Sprint(r) != "boom 5" {
						t.Fatalf("recovered %v, want smallest-index panic \"boom 5\"", r)
					}
					for i, v := range ran {
						if !v {
							t.Fatalf("cell %d never ran after another cell panicked", i)
						}
					}
				}()
				Grid(16, func(i int) (int, error) {
					ran[i] = true
					if i == 5 || i == 11 {
						panic(fmt.Sprintf("boom %d", i))
					}
					return i, nil
				})
			})
		})
	}
}

// TestGridMachineBodyPanic: a panic inside a simulated processor's body
// (on the engine's processor goroutine, not the cell's) surfaces as Grid's
// re-raised panic, and every other cell's machine still runs to completion.
func TestGridMachineBodyPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				done := make([]bool, 8)
				defer func() {
					if r := recover(); fmt.Sprint(r) != "body boom 3" {
						t.Fatalf("recovered %v, want \"body boom 3\"", r)
					}
					for i, d := range done {
						if !d && i != 3 {
							t.Fatalf("cell %d did not complete after cell 3's body panicked", i)
						}
					}
				}()
				Grid(8, func(i int) (memsys.Time, error) {
					m := machine.MustNew(memsys.KindRCInv, memsys.Default(4))
					a := m.Alloc(8)
					res := m.Run("panic", func(e *machine.Env) {
						e.StoreU64(a, uint64(e.ID()))
						if i == 3 && e.ID() == 2 {
							panic(fmt.Sprintf("body boom %d", i))
						}
						e.LoadU64(a)
					})
					done[i] = true
					return res.ExecTime, nil
				})
			})
		})
	}
}

// TestGridFailureSurfacing is the table-driven contract for error/panic
// surfacing: whatever mix of failing cells a grid contains, (a) every
// cell runs, (b) the surfaced error is the smallest-index one — exactly
// what a serial left-to-right run would report — and (c) a panic anywhere
// is re-raised (smallest index first) only after the pool has drained,
// taking precedence over any error. All of it independent of the worker
// bound.
func TestGridFailureSurfacing(t *testing.T) {
	const n = 24
	cases := []struct {
		name      string
		errAt     []int
		panicAt   []int
		wantErr   int // index of the error that must surface; -1 = nil error
		wantPanic int // index of the panic that must surface; -1 = no panic
	}{
		{"no failures", nil, nil, -1, -1},
		{"single error", []int{9}, nil, 9, -1},
		{"error at cell zero", []int{0}, nil, 0, -1},
		{"lowest of many errors wins", []int{17, 4, 21, 11}, nil, 4, -1},
		{"error at last cell", []int{n - 1}, nil, n - 1, -1},
		{"single panic", nil, []int{13}, -1, 13},
		{"lowest of many panics wins", nil, []int{19, 6, 10}, -1, 6},
		{"panic beats lower-index error", []int{2}, []int{20}, -1, 20},
		{"every cell errors", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, nil, 0, -1},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, par), func(t *testing.T) {
				erring := make(map[int]bool, len(tc.errAt))
				for _, i := range tc.errAt {
					erring[i] = true
				}
				panicking := make(map[int]bool, len(tc.panicAt))
				for _, i := range tc.panicAt {
					panicking[i] = true
				}
				var ran [n]atomic.Bool
				checkAllRan := func() {
					t.Helper()
					for i := range ran {
						if !ran[i].Load() {
							t.Fatalf("cell %d never ran", i)
						}
					}
				}
				defer func() {
					r := recover()
					if tc.wantPanic < 0 {
						if r != nil {
							t.Fatalf("unexpected panic %v", r)
						}
						return
					}
					want := fmt.Sprintf("panic %d", tc.wantPanic)
					if r == nil || fmt.Sprint(r) != want {
						t.Fatalf("recovered %v, want %q", r, want)
					}
					checkAllRan()
				}()
				withParallelism(par, func() {
					got, err := Grid(n, func(i int) (int, error) {
						ran[i].Store(true)
						if panicking[i] {
							panic(fmt.Sprintf("panic %d", i))
						}
						if erring[i] {
							return 0, fmt.Errorf("error %d", i)
						}
						return i, nil
					})
					if tc.wantPanic >= 0 {
						t.Fatal("expected a panic, Grid returned")
					}
					checkAllRan()
					switch {
					case tc.wantErr < 0 && err != nil:
						t.Fatalf("err = %v, want nil", err)
					case tc.wantErr >= 0 && (err == nil || err.Error() != fmt.Sprintf("error %d", tc.wantErr)):
						t.Fatalf("err = %v, want error %d", err, tc.wantErr)
					}
					for i, v := range got {
						if !erring[i] && v != i {
							t.Fatalf("healthy cell %d = %d, want %d (failed neighbours must not corrupt it)", i, v, i)
						}
					}
				})
			})
		}
	}
}

// TestGridZeroCells degenerate case.
func TestGridZeroCells(t *testing.T) {
	got, err := Grid(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("Grid(0) = %v, %v; want empty, nil", got, err)
	}
}

// TestGridDeterministicAcrossWorkerCounts runs the same grid at several
// bounds and requires identical result slices.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(par int) []string {
		var out []string
		withParallelism(par, func() {
			rs, err := Grid(50, func(i int) (string, error) {
				return fmt.Sprintf("r%03d", i), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			out = rs
		})
		return out
	}
	want := run(1)
	for _, par := range []int{2, 5, 32} {
		got := run(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d cell %d = %q, want %q", par, i, got[i], want[i])
			}
		}
	}
}

// TestGridHostMetrics pins the runner's host-side metrics: with metrics on,
// one grid of n cells adds one runner.grids, n runner.cells and n
// runner.cell_wall_ms observations, and its runner.workers_busy peak lies
// between 1 and the worker bound; with metrics off it records nothing.
func TestGridHostMetrics(t *testing.T) {
	const n = 5
	grid := func() {
		if _, err := Grid(n, func(i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				prev := metrics.Enable(true)
				defer metrics.Enable(prev)
				metrics.Default.Reset()
				defer metrics.Default.Reset()
				grid()
				s := metrics.Default.Snapshot()
				if got := s.Counter("runner.grids"); got != 1 {
					t.Errorf("runner.grids = %d, want 1", got)
				}
				if got := s.Counter("runner.cells"); got != n {
					t.Errorf("runner.cells = %d, want %d", got, n)
				}
				if got := s.Histograms["runner.cell_wall_ms"].Count; got != n {
					t.Errorf("runner.cell_wall_ms count = %d, want %d", got, n)
				}
				busy := s.Gauges["runner.workers_busy"]
				if busy.Value != 0 || busy.Max < 1 || busy.Max > int64(min(Parallelism(), n)) {
					t.Errorf("runner.workers_busy = %+v, want value 0 and max in [1, %d]", busy, min(Parallelism(), n))
				}
				grid()
				if got := metrics.Default.Snapshot().Counter("runner.grids"); got != 2 {
					t.Errorf("runner.grids after a second grid = %d, want 2", got)
				}
			})
		})
	}
	t.Run("disabled", func(t *testing.T) {
		prev := metrics.Enable(false)
		defer metrics.Enable(prev)
		metrics.Default.Reset()
		grid()
		if s := metrics.Default.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
			t.Errorf("disabled grid recorded metrics:\n%s", s)
		}
	})
}
