package workload

import (
	"fmt"
	"strings"

	"zsim/internal/apps"
	"zsim/internal/apps/cholesky"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/metrics"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// A cell is one simulation of the evaluation matrix: an application at a
// scale on one memory system with fully resolved parameters. Params holds
// only scalars and strings, so cells compare with == and key the store.
type cell struct {
	app   string
	scale Scale
	kind  memsys.Kind
	p     memsys.Params
	// ordering overrides Cholesky's elimination ordering (E17). Empty runs
	// the application's default, so E17's natural-ordering cell is the
	// base cholesky cell.
	ordering string
}

// run simulates the cell on a fresh machine, verifying the output, and
// returns the result with the machine's harvested metrics.
func (c cell) run() (*stats.Result, metrics.Snapshot, error) {
	var app apps.App
	var err error
	if c.ordering != "" {
		app = cholesky.New(choleskyConfig(c.scale, c.ordering))
	} else if app, err = NewApp(c.app, c.scale); err != nil {
		return nil, metrics.Snapshot{}, err
	}
	m, err := machine.New(c.kind, c.p)
	if err != nil {
		return nil, metrics.Snapshot{}, err
	}
	res, err := apps.Run(app, m)
	if err != nil {
		return nil, metrics.Snapshot{}, fmt.Errorf("workload: %s on %s failed verification: %w", c.app, c.kind, err)
	}
	return res, m.Metrics(), nil
}

// A store holds the results of one resolve: every distinct cell of a cell
// list, simulated once. It lives for the call that filled it, so no store
// outlives an entry point.
type store map[cell]*stored

type stored struct {
	res *stats.Result
	met metrics.Snapshot // the cell's machine.Metrics()
	// fresh is set while the cell's own run, which machine.Run already
	// merged into metrics.Default, has not been read.
	fresh bool
}

// fill simulates every distinct cell of cells once, in declaration order,
// in one runner.Grid.
func fill(cells []cell) (store, error) {
	s := store{}
	var distinct []cell
	for _, c := range cells {
		if _, ok := s[c]; !ok {
			s[c] = nil
			distinct = append(distinct, c)
		}
	}
	ran, err := runner.Grid(len(distinct), func(i int) (*stored, error) {
		res, met, err := distinct[i].run()
		return &stored{res, met, true}, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range distinct {
		s[c] = ran[i]
	}
	return s, nil
}

// get returns a private copy of a filled cell's result. Every read counts
// the cell's machine metrics once: the first read after its run stands on
// the run's own merge, and every other read merges the stored snapshot
// into metrics.Default. Simulated totals therefore equal simulating each
// read fresh.
func (s store) get(c cell) *stats.Result {
	st := s[c]
	if st.fresh {
		st.fresh = false
	} else if metrics.Enabled() {
		metrics.Default.Merge(st.met)
	}
	return st.res.Clone()
}

// A plan is an experiment as data: the cells it declares and the render
// step that builds its artifact from their results, in declaration order.
type plan[A any] struct {
	cells  []cell
	render func(rs []*stats.Result) A
}

// read reads each of the plan's cells from s.
func (pl plan[A]) read(s store) []*stats.Result {
	rs := make([]*stats.Result, len(pl.cells))
	for i, c := range pl.cells {
		rs[i] = s.get(c)
	}
	return rs
}

// results simulates the plan's cells and reads each of them.
func (pl plan[A]) results() ([]*stats.Result, error) {
	s, err := fill(pl.cells)
	if err != nil {
		return nil, err
	}
	return pl.read(s), nil
}

// run resolves the plan and renders it.
func (pl plan[A]) run() (A, error) {
	rs, err := pl.results()
	if err != nil {
		var zero A
		return zero, err
	}
	return pl.render(rs), nil
}

// across declares every app × kind cell at p, app-major.
func across(names []string, kinds []memsys.Kind, scale Scale, p memsys.Params) []cell {
	var cs []cell
	for _, name := range names {
		for _, k := range kinds {
			cs = append(cs, cell{app: name, scale: scale, kind: k, p: p})
		}
	}
	return cs
}

// vary declares n cells of app on kind, the i-th at base with set(&p, i)
// applied.
func vary(app string, scale Scale, kind memsys.Kind, base memsys.Params, n int, set func(p *memsys.Params, i int)) []cell {
	cs := make([]cell, n)
	for i := range cs {
		p := base
		set(&p, i)
		cs[i] = cell{app: app, scale: scale, kind: kind, p: p}
	}
	return cs
}

// table renders one row per name from the name's group of results (the
// results split evenly, in order, across the names): the name, then
// row(i, group).
func table(title string, head, names []string, row func(i int, g []*stats.Result) []string) func([]*stats.Result) *stats.Table {
	return func(rs []*stats.Result) *stats.Table {
		t := &stats.Table{Title: title, Head: head}
		n := len(rs) / max(len(names), 1)
		for i, l := range names {
			t.Add(append([]string{l}, row(i, rs[i*n:(i+1)*n])...)...)
		}
		return t
	}
}

// cols formats one row's columns: the i-th space-separated verb of format
// applied to vs[i].
func cols(format string, vs ...any) []string {
	verbs := strings.Fields(format)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(verbs[i], v)
	}
	return out
}

// labels formats each value as a row label.
func labels[T any](format string, vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// Regenerate is the default regeneration: every experiment of the index
// (Experiments) and the paper's claims, resolved together. It simulates
// each distinct cell of every plan and of the claims once, in one
// runner.Grid, then renders the artifacts in index order and evaluates the
// claims from the same results. It returns the artifacts, aligned with
// Experiments(), the claims' verdict table and their overall verdict.
func Regenerate(scale Scale, p memsys.Params) ([]Artifact, *stats.Table, bool, error) {
	var plans []plan[Artifact]
	var cells []cell
	for _, e := range Experiments() {
		pl := e.plan(scale, p)
		plans = append(plans, pl)
		cells = append(cells, pl.cells...)
	}
	s, err := fill(append(cells, claimCells(scale, p)...))
	if err != nil {
		return nil, nil, false, err
	}
	arts := make([]Artifact, len(plans))
	for i, pl := range plans {
		arts[i] = pl.render(pl.read(s))
	}
	t, ok := checkClaims(s, scale, p)
	return arts, t, ok, nil
}
