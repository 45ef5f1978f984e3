package main

import (
	"fmt"
	"runtime"
	"time"

	"zsim"
	"zsim/internal/machine"
	"zsim/internal/metrics"
	"zsim/internal/runner"
	"zsim/internal/workload"
)

// Phase boundaries of a cell, in order; phaseNames[k] spans t[k]..t[k+1].
const numPhases = 6

var phaseNames = [numPhases]string{spanNewApp, spanMachine, spanSetup, spanRun, spanVerify, spanGolden}

// cellRun is one cell's outcome in one pass.
type cellRun struct {
	spec *cellSpec
	// t holds the phase boundaries; a zero entry means the cell failed
	// before reaching it.
	t        [numPhases + 1]time.Time
	done     time.Time
	obs      Golden
	snap     metrics.Snapshot // the machine's registry; empty when metrics are off
	overhead float64          // the Result's overhead%
	err      error
}

// setup is the host time of NewApp + machine.New + App.Setup.
func (r *cellRun) setup() time.Duration {
	if r.t[3].IsZero() {
		return 0
	}
	return r.t[3].Sub(r.t[0])
}

// runCell builds, runs, verifies and checks one cell. want is nil when the
// cell is not golden-checked (a non-default seed, or recording goldens).
func runCell(c *cellSpec, cfgs appConfigs, want *Golden, metricsOn bool) (r cellRun) {
	r.spec = c
	r.t[0] = time.Now()
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
		r.done = time.Now()
	}()
	app, err := cfgs.newApp(c.App)
	r.t[1] = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	m, err := machine.New(c.Kind, c.Params)
	r.t[2] = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	app.Setup(m)
	r.t[3] = time.Now()
	res := m.Run(app.Name(), app.Body)
	r.t[4] = time.Now()
	r.err = app.Verify(m)
	r.t[5] = time.Now()
	r.obs = observe(res, m, metricsOn)
	r.overhead = res.OverheadPct()
	if r.err == nil && want != nil {
		r.err = want.check(r.obs)
	}
	r.t[6] = time.Now()
	if metricsOn {
		r.snap = m.Metrics()
	}
	return r
}

// passRun is one pass over a workload's cells.
type passRun struct {
	traced bool
	start  time.Time
	wall   time.Duration
	cells  []cellRun
	host   hostDelta
}

// benchRun holds what every pass of one run shares.
type benchRun struct {
	w       workloadSpec
	cfgs    map[workload.Scale]appConfigs
	order   []int
	goldens Goldens // nil: no golden checks
	tracer  *Tracer
}

// newBenchRun derives a run's inputs from the seed. Goldens are checked
// only at DefaultSeed.
func newBenchRun(w workloadSpec, seed int64, goldens Goldens) (*benchRun, error) {
	b := &benchRun{w: w, cfgs: map[workload.Scale]appConfigs{}, order: cellOrder(len(w.Cells), seed)}
	for _, c := range w.Cells {
		if _, ok := b.cfgs[c.Scale]; ok {
			continue
		}
		cfg, err := configsFor(c.Scale, seed)
		if err != nil {
			return nil, err
		}
		b.cfgs[c.Scale] = cfg
	}
	if seed == DefaultSeed {
		b.goldens = goldens
	}
	return b, nil
}

// goldenKey names a cell in the golden file.
func goldenKey(w string, c *cellSpec) string { return w + "/" + c.Name }

// pass runs every cell once. A traced pass enables the metrics registry
// and records spans; an untraced pass does neither.
func (b *benchRun) pass(index int, traced bool) passRun {
	prev := zsim.EnableMetrics(traced)
	defer zsim.EnableMetrics(prev)
	prevPar := runner.SetParallelism(b.w.Parallelism)
	defer runner.SetParallelism(prevPar)
	runtime.GC()
	h0 := readHost()
	start := time.Now()
	// Cells report failures in cellRun.err, so Grid's error is always nil.
	cells, _ := runner.Grid(len(b.order), func(i int) (cellRun, error) {
		c := &b.w.Cells[b.order[i]]
		if b.w.Parallelism == 1 {
			// Serial cells start from a collected heap, so the garbage of
			// the previous cell neither slows this one nor raises the
			// pass's peak memory, whatever the seeded order.
			runtime.GC()
		}
		var want *Golden
		if b.goldens != nil {
			g, ok := b.goldens[goldenKey(b.w.Name, c)]
			if !ok {
				return cellRun{spec: c, t: [numPhases + 1]time.Time{time.Now()}, done: time.Now(),
					err: fmt.Errorf("no golden for %s", goldenKey(b.w.Name, c))}, nil
			}
			want = &g
		}
		return runCell(c, b.cfgs[c.Scale], want, traced), nil
	})
	p := passRun{traced: traced, start: start, wall: time.Since(start), cells: cells}
	p.host = readHost().since(h0)
	if traced {
		b.record(index, p)
	}
	return p
}

// record turns a finished pass into spans: the pass, each cell's runner
// wait, the cell, and its phases. The cell's position in the workload is
// its id, shared by all its spans.
func (b *benchRun) record(index int, p passRun) {
	end := p.start.Add(p.wall)
	passID := b.tracer.Add(0, index, -1, spanPass, b.w.Name, p.start, end)
	for i := range p.cells {
		r := &p.cells[i]
		id := b.order[i]
		b.tracer.Add(passID, index, id, spanWait, r.spec.Name, p.start, r.t[0])
		cellID := b.tracer.Add(passID, index, id, spanCell, r.spec.Name, r.t[0], r.done)
		for k, name := range phaseNames {
			if !r.t[k+1].IsZero() {
				b.tracer.Add(cellID, index, id, name, r.spec.Name, r.t[k], r.t[k+1])
			}
		}
	}
}
