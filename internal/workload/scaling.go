package workload

import (
	"fmt"

	"zsim/internal/benchrec"
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// DefaultScalingProcs returns the machine sizes of the scalability family:
// the paper's 64-processor configuration plus the two many-core points the
// lifted processor cap makes reachable (16×16 and 32×32 meshes).
func DefaultScalingProcs() []int { return []int{64, 256, 1024} }

// ScalingCurve is a scalability experiment's artifact: a rendered table of
// overhead classes versus machine size plus the machine-readable per-P
// curve that paperbench emits into BENCH_*.json for benchdiff to gate on.
type ScalingCurve struct {
	*stats.Table
	curve benchrec.Curve
}

// CurveData returns the machine-readable per-P curve.
func (c *ScalingCurve) CurveData() benchrec.Curve { return c.curve }

// OverheadScaling runs one application on one memory system at each machine
// size and decomposes execution time into the paper's overhead classes
// (read stall, write stall, buffer flush) plus synchronization wait. Every
// cell derives its parameters with base.WithProcs, so the topology carries
// over.
func OverheadScaling(app string, scale Scale, kind memsys.Kind, base memsys.Params, procs []int) (*ScalingCurve, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("workload: OverheadScaling needs at least one machine size")
	}
	return scalingPlan("", app, scale, kind, base, procs).run()
}

// scalingPlan declares OverheadScaling's cells; id tags the curve.
func scalingPlan(id, app string, scale Scale, kind memsys.Kind, base memsys.Params, procs []int) plan[*ScalingCurve] {
	cells := vary(app, scale, kind, base, len(procs), func(p *memsys.Params, i int) { *p = base.WithProcs(procs[i]) })
	return plan[*ScalingCurve]{cells, func(rs []*stats.Result) *ScalingCurve {
		c := &ScalingCurve{curve: benchrec.Curve{ID: id, App: app, System: string(kind)}}
		c.Table = table(fmt.Sprintf("Overhead scaling: %s on %s", app, kind),
			[]string{"procs", "exec-cycles", "read-stall", "write-stall", "buffer-flush", "sync-wait", "overhead%"},
			labels("%d", procs), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %d %d %.2f",
					r.ExecTime, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(), r.TotalSyncWait(), r.OverheadPct())
			})(rs)
		for i, r := range rs {
			c.curve.Points = append(c.curve.Points, benchrec.CurvePoint{
				Procs:       procs[i],
				ExecCycles:  float64(r.ExecTime),
				ReadStall:   float64(r.TotalReadStall()),
				WriteStall:  float64(r.TotalWriteStall()),
				BufferFlush: float64(r.TotalBufferFlush()),
				SyncWait:    float64(r.TotalSyncWait()),
				OverheadPct: r.OverheadPct(),
			})
		}
		return c
	}}
}

// ScalingExperiments returns the scalability family S1..S4: overhead
// classes versus machine size for each paper application on RCinv, at the
// given machine sizes (nil selects DefaultScalingProcs). The family is a
// separate index from Experiments() on purpose: its cells run the
// applications at 256 and 1024 processors, so folding it into the default
// regeneration would change the metric totals and wall-time profile that
// CI's bench gate pins against BENCH_baseline.json.
func ScalingExperiments(procs []int) []Experiment {
	if len(procs) == 0 {
		procs = DefaultScalingProcs()
	}
	apps := AppNames()
	exps := make([]Experiment, 0, len(apps))
	for i, app := range apps {
		id := fmt.Sprintf("S%d", i+1)
		app := app
		exps = append(exps, experiment(id, fmt.Sprintf("scaling: %s overhead classes vs P on RCinv %v", app, procs),
			func(sc Scale, p memsys.Params) plan[*ScalingCurve] {
				return scalingPlan(id, app, sc, memsys.KindRCInv, p, procs)
			}))
	}
	return exps
}

// FindExperimentScaled looks an experiment up by ID across both indexes:
// the DESIGN.md regeneration index (E1..) and the scalability family
// (S1..), the latter built over the given machine sizes.
func FindExperimentScaled(id string, procs []int) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range ScalingExperiments(procs) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("workload: no experiment %q (want E1..E%d or S1..S%d)",
		id, len(Experiments()), len(AppNames()))
}
