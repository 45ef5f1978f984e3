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

// A store holds the cells simulated so far, so that a cell declared by
// several experiments runs once. It is scoped to one regeneration (see
// Regeneration); every other entry point runs on a fresh store. Not safe
// for concurrent use.
type store map[cell]*stored

type stored struct {
	res *stats.Result
	met metrics.Snapshot // the cell's machine.Metrics()
	// fresh is set while the cell's own run, which machine.Run already
	// merged into metrics.Default, has not been read.
	fresh bool
}

// fill simulates every cell the store lacks, each distinct cell once, in
// one runner.Grid.
func (s store) fill(cells []cell) error {
	var miss []cell
	for _, c := range cells {
		if _, ok := s[c]; !ok {
			s[c] = nil
			miss = append(miss, c)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	ran, err := runner.Grid(len(miss), func(i int) (*stored, error) {
		res, met, err := miss[i].run()
		return &stored{res, met, true}, err
	})
	if err != nil {
		for _, c := range miss {
			delete(s, c)
		}
		return err
	}
	for i, c := range miss {
		s[c] = ran[i]
	}
	return nil
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

// results fills the plan's cells into s and reads each of them.
func (pl plan[A]) results(s store) ([]*stats.Result, error) {
	if err := s.fill(pl.cells); err != nil {
		return nil, err
	}
	rs := make([]*stats.Result, len(pl.cells))
	for i, c := range pl.cells {
		rs[i] = s.get(c)
	}
	return rs, nil
}

// run resolves the plan against s and renders it.
func (pl plan[A]) run(s store) (A, error) {
	rs, err := pl.results(s)
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

// Regeneration runs experiments and the claims against one shared store,
// so a cell that several of them declare is simulated once. Each artifact
// renders from private copies of the stored results, so no artifact can
// change another. A Regeneration lives for one regeneration and is not
// safe for concurrent use.
type Regeneration struct {
	scale Scale
	p     memsys.Params
	cells store
}

// NewRegeneration returns a regeneration at the given scale and base
// parameters with an empty store.
func NewRegeneration(scale Scale, p memsys.Params) *Regeneration {
	return &Regeneration{scale: scale, p: p, cells: store{}}
}

// Run regenerates one experiment, reusing every cell already simulated.
func (g *Regeneration) Run(e Experiment) (Artifact, error) {
	return e.plan(g.scale, g.p).run(g.cells)
}

// Claims evaluates the paper's claims, reusing every cell already
// simulated.
func (g *Regeneration) Claims() (*stats.Table, bool, error) {
	return evaluateClaims(g.cells, g.scale, g.p)
}
