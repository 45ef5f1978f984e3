package workload

import (
	"fmt"

	"zsim/internal/apps"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// ConformanceSweep runs every application on every memory system with the
// runtime conformance checker attached (Machine.EnableCheck) and tabulates
// the verdicts: events validated per run, and any invariant violations. The
// returned flag is true when every execution was clean. Output verification
// failures (a wrong answer) are returned as errors, not verdict cells.
func ConformanceSweep(scale Scale, p memsys.Params) (*stats.Table, bool, error) {
	kinds := memsys.Kinds()
	head := []string{"app \\ system"}
	for _, k := range kinds {
		head = append(head, string(k))
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Conformance-checker verdicts (%s scale, %d processors)", scale, p.Procs),
		Head:  head,
	}
	type verdict struct {
		cell string
		ok   bool
	}
	names := AppNames()
	verdicts, err := runner.Grid(len(names)*len(kinds), func(i int) (verdict, error) {
		name, kind := names[i/len(kinds)], kinds[i%len(kinds)]
		app, err := NewApp(name, scale)
		if err != nil {
			return verdict{}, err
		}
		m, err := machine.New(kind, p)
		if err != nil {
			return verdict{}, err
		}
		chk := m.EnableCheck()
		if _, err := apps.Run(app, m); err != nil {
			return verdict{}, fmt.Errorf("workload: %s on %s failed verification: %w", name, kind, err)
		}
		events, _, _, _ := chk.Stats()
		if chk.Ok() {
			return verdict{fmt.Sprintf("ok (%d ev)", events), true}, nil
		}
		return verdict{fmt.Sprintf("FAIL (%d violations)", chk.NumViolations()), false}, nil
	})
	if err != nil {
		return nil, false, err
	}
	pass := true
	for i, name := range names {
		row := []string{name}
		for j := range kinds {
			v := verdicts[i*len(kinds)+j]
			if !v.ok {
				pass = false
			}
			row = append(row, v.cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, pass, nil
}
