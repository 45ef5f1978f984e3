// Package workload is the evaluation harness: it runs the paper's four
// applications on the simulated memory systems and regenerates every table
// and figure of the evaluation section (Figures 2–5 and Table 1), plus the
// parameter sweeps behind the paper's architectural-implications
// discussion.
package workload

import (
	"fmt"

	"zsim/internal/apps"
	"zsim/internal/apps/barneshut"
	"zsim/internal/apps/cholesky"
	"zsim/internal/apps/intsort"
	"zsim/internal/apps/maxflow"
	"zsim/internal/apps/sor"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/runner"
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
		if small {
			return cholesky.New(cholesky.Small()), nil
		}
		return cholesky.New(cholesky.Paper()), nil
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

// Run executes the named application on a fresh machine with the given
// memory system, verifying the output.
func Run(name string, scale Scale, kind memsys.Kind, p memsys.Params) (*stats.Result, error) {
	app, err := NewApp(name, scale)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(kind, p)
	if err != nil {
		return nil, err
	}
	res, err := apps.Run(app, m)
	if err != nil {
		return nil, fmt.Errorf("workload: %s on %s failed verification: %w", name, kind, err)
	}
	return res, nil
}

// figureOf maps the paper's figure numbers to applications.
var figureOf = map[int]string{2: "cholesky", 3: "is", 4: "maxflow", 5: "nbody"}

// FigureNumbers returns the paper's figure numbers in order.
func FigureNumbers() []int { return []int{2, 3, 4, 5} }

// Figure regenerates Figure n (2: Cholesky, 3: IS, 4: Maxflow, 5:
// Barnes-Hut): the application on the z-machine and the four RC memory
// systems, with the per-system overhead decomposition.
func Figure(n int, scale Scale, p memsys.Params) (*stats.Figure, error) {
	name, ok := figureOf[n]
	if !ok {
		return nil, fmt.Errorf("workload: no figure %d in the paper (want 2-5)", n)
	}
	fig := &stats.Figure{Title: fmt.Sprintf("Figure %d: %s (%s scale, %d processors)", n, name, scale, p.Procs)}
	kinds := memsys.FigureKinds()
	results, err := runner.Grid(len(kinds), func(i int) (*stats.Result, error) {
		return Run(name, scale, kinds[i], p)
	})
	if err != nil {
		return nil, err
	}
	fig.Results = results
	return fig, nil
}

// Table1 regenerates the paper's Table 1: the inherent communication and
// observed costs on the z-machine for every application — the number of
// writes, the network propagation those writes represent (absolute cycles
// and as a percentage of aggregate execution time, virtually all of it
// hidden under computation), and the observed (read-stall) cycles.
func Table1(scale Scale, p memsys.Params) (*stats.Table, []*stats.Result, error) {
	t := &stats.Table{
		Title: fmt.Sprintf("Table 1: inherent communication and observed costs on the z-machine (%s scale)", scale),
		Head:  []string{"app", "writes", "net-cycles", "net % of exec", "observed cost (cycles)", "exec-cycles"},
	}
	apps := AppNames()
	results, err := runner.Grid(len(apps), func(i int) (*stats.Result, error) {
		return Run(apps[i], scale, memsys.KindZMachine, p)
	})
	if err != nil {
		return nil, nil, err
	}
	for i, r := range results {
		pct := 0.0
		if r.ExecTime > 0 {
			pct = 100 * float64(r.Counters.NetworkCycles) / (float64(r.ExecTime) * float64(p.Procs))
		}
		t.Add(apps[i],
			fmt.Sprintf("%d", r.Counters.Writes),
			fmt.Sprintf("%d", r.Counters.NetworkCycles),
			fmt.Sprintf("%.3f", pct),
			fmt.Sprintf("%d", r.TotalReadStall()),
			fmt.Sprintf("%d", r.ExecTime),
		)
	}
	return t, results, nil
}

// ZvsPRAM regenerates the §5 headline comparison: execution time on the
// z-machine versus the PRAM for every application. The paper's result is
// that they match.
func ZvsPRAM(scale Scale, p memsys.Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "z-machine vs PRAM execution time (paper §5: they should match)",
		Head:  []string{"app", "pram-exec", "zmc-exec", "ratio"},
	}
	apps := AppNames()
	kinds := []memsys.Kind{memsys.KindPRAM, memsys.KindZMachine}
	results, err := runner.Grid(len(apps)*len(kinds), func(i int) (*stats.Result, error) {
		return Run(apps[i/len(kinds)], scale, kinds[i%len(kinds)], p)
	})
	if err != nil {
		return nil, err
	}
	for i, name := range apps {
		pr, zr := results[2*i], results[2*i+1]
		t.Add(name,
			fmt.Sprintf("%d", pr.ExecTime),
			fmt.Sprintf("%d", zr.ExecTime),
			fmt.Sprintf("%.4f", float64(zr.ExecTime)/float64(pr.ExecTime)),
		)
	}
	return t, nil
}

// SummaryMatrix runs every application on every memory system and tabulates
// the overhead percentage — the whole evaluation at a glance.
func SummaryMatrix(scale Scale, p memsys.Params) (*stats.Table, error) {
	kinds := memsys.Kinds()
	head := []string{"app \\ system"}
	for _, k := range kinds {
		head = append(head, string(k))
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Overhead %% by application and memory system (%s scale, %d processors)", scale, p.Procs),
		Head:  head,
	}
	apps := AppNames()
	results, err := runner.Grid(len(apps)*len(kinds), func(i int) (*stats.Result, error) {
		return Run(apps[i/len(kinds)], scale, kinds[i%len(kinds)], p)
	})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		row := []string{app}
		for j := range kinds {
			row = append(row, fmt.Sprintf("%.2f", results[i*len(kinds)+j].OverheadPct()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
