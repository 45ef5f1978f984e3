// Package workload is the evaluation harness: it runs the paper's four
// applications on the simulated memory systems and regenerates every table
// and figure of the evaluation section (Figures 2–5 and Table 1), plus the
// parameter sweeps behind the paper's architectural-implications
// discussion. Every experiment is a plan: the cells it declares plus a
// render step (plan.go).
package workload

import (
	"fmt"

	"zsim/internal/apps"
	"zsim/internal/apps/barneshut"
	"zsim/internal/apps/cholesky"
	"zsim/internal/apps/intsort"
	"zsim/internal/apps/maxflow"
	"zsim/internal/apps/sor"
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Scale selects the problem size.
type Scale string

const (
	// ScalePaper uses the paper's exact problem sizes (slow: minutes).
	ScalePaper Scale = "paper"
	// ScaleSmall uses reduced instances with the same structure (seconds).
	ScaleSmall Scale = "small"
)

// AppNames lists the four applications in figure order (Figure 2..5).
func AppNames() []string { return []string{"cholesky", "is", "maxflow", "nbody"} }

// NewApp builds one of the paper's applications at the given scale.
func NewApp(name string, scale Scale) (apps.App, error) {
	small := scale == ScaleSmall
	switch name {
	case "cholesky":
		return cholesky.New(choleskyConfig(scale, "")), nil
	case "is":
		if small {
			return intsort.New(intsort.Small()), nil
		}
		return intsort.New(intsort.Paper()), nil
	case "maxflow":
		if small {
			return maxflow.New(maxflow.Small()), nil
		}
		return maxflow.New(maxflow.Paper()), nil
	case "nbody", "barnes-hut", "barneshut":
		if small {
			return barneshut.New(barneshut.Small()), nil
		}
		return barneshut.New(barneshut.Paper()), nil
	case "sor":
		// Extra library application (not part of the paper's figures):
		// the canonical static nearest-neighbour workload.
		if small {
			return sor.New(sor.Small()), nil
		}
		return sor.New(sor.Default()), nil
	}
	return nil, fmt.Errorf("workload: unknown application %q (want one of %v)", name, AppNames())
}

// choleskyConfig sizes Cholesky for the scale, with the given elimination
// ordering ("" is the default, natural ordering).
func choleskyConfig(scale Scale, ordering string) cholesky.Config {
	cfg := cholesky.Paper()
	if scale == ScaleSmall {
		cfg = cholesky.Small()
	}
	cfg.Ordering = ordering
	return cfg
}

// Run executes the named application on a fresh machine with the given
// memory system, verifying the output.
func Run(name string, scale Scale, kind memsys.Kind, p memsys.Params) (*stats.Result, error) {
	res, _, err := cell{app: name, scale: scale, kind: kind, p: p}.run()
	return res, err
}

// figureOf maps the paper's figure numbers to applications.
var figureOf = map[int]string{2: "cholesky", 3: "is", 4: "maxflow", 5: "nbody"}

// FigureNumbers returns the paper's figure numbers in order.
func FigureNumbers() []int { return []int{2, 3, 4, 5} }

// Figure regenerates Figure n (2: Cholesky, 3: IS, 4: Maxflow, 5:
// Barnes-Hut): the application on the z-machine and the four RC memory
// systems, with the per-system overhead decomposition.
func Figure(n int, scale Scale, p memsys.Params) (*stats.Figure, error) {
	if _, ok := figureOf[n]; !ok {
		return nil, fmt.Errorf("workload: no figure %d in the paper (want 2-5)", n)
	}
	return figurePlan(n, scale, p).run()
}

func figurePlan(n int, scale Scale, p memsys.Params) plan[*stats.Figure] {
	name := figureOf[n]
	title := fmt.Sprintf("Figure %d: %s (%s scale, %d processors)", n, name, scale, p.Procs)
	return plan[*stats.Figure]{across([]string{name}, memsys.FigureKinds(), scale, p), func(rs []*stats.Result) *stats.Figure {
		return &stats.Figure{Title: title, Results: rs}
	}}
}

// Table1 regenerates the paper's Table 1: the inherent communication and
// observed costs on the z-machine for every application — the number of
// writes, the network propagation those writes represent (absolute cycles
// and as a percentage of aggregate execution time, virtually all of it
// hidden under computation), and the observed (read-stall) cycles.
func Table1(scale Scale, p memsys.Params) (*stats.Table, []*stats.Result, error) {
	pl := table1Plan(scale, p)
	rs, err := pl.results()
	if err != nil {
		return nil, nil, err
	}
	return pl.render(rs), rs, nil
}

func table1Plan(scale Scale, p memsys.Params) plan[*stats.Table] {
	return plan[*stats.Table]{across(AppNames(), []memsys.Kind{memsys.KindZMachine}, scale, p), table(
		fmt.Sprintf("Table 1: inherent communication and observed costs on the z-machine (%s scale)", scale),
		[]string{"app", "writes", "net-cycles", "net % of exec", "observed cost (cycles)", "exec-cycles"},
		AppNames(), func(_ int, g []*stats.Result) []string {
			r := g[0]
			pct := 0.0
			if r.ExecTime > 0 {
				pct = 100 * float64(r.Counters.NetworkCycles) / (float64(r.ExecTime) * float64(p.Procs))
			}
			return cols("%d %d %.3f %d %d",
				r.Counters.Writes, r.Counters.NetworkCycles, pct, r.TotalReadStall(), r.ExecTime)
		})}
}

// ZvsPRAM regenerates the §5 headline comparison: execution time on the
// z-machine versus the PRAM for every application. The paper's result is
// that they match.
func ZvsPRAM(scale Scale, p memsys.Params) (*stats.Table, error) {
	return zVsPRAMPlan(scale, p).run()
}

func zVsPRAMPlan(scale Scale, p memsys.Params) plan[*stats.Table] {
	return plan[*stats.Table]{across(AppNames(), []memsys.Kind{memsys.KindPRAM, memsys.KindZMachine}, scale, p), table(
		"z-machine vs PRAM execution time (paper §5: they should match)",
		[]string{"app", "pram-exec", "zmc-exec", "ratio"},
		AppNames(), func(_ int, g []*stats.Result) []string {
			pr, zr := g[0], g[1]
			return cols("%d %d %.4f",
				pr.ExecTime, zr.ExecTime, float64(zr.ExecTime)/float64(pr.ExecTime))
		})}
}

// SummaryMatrix runs every application on every memory system and tabulates
// the overhead percentage — the whole evaluation at a glance.
func SummaryMatrix(scale Scale, p memsys.Params) (*stats.Table, error) {
	kinds := memsys.Kinds()
	head := []string{"app \\ system"}
	for _, k := range kinds {
		head = append(head, string(k))
	}
	return plan[*stats.Table]{across(AppNames(), kinds, scale, p), table(
		fmt.Sprintf("Overhead %% by application and memory system (%s scale, %d processors)", scale, p.Procs),
		head, AppNames(), func(_ int, g []*stats.Result) []string {
			row := make([]string, len(g))
			for j, r := range g {
				row[j] = fmt.Sprintf("%.2f", r.OverheadPct())
			}
			return row
		})}.run()
}
