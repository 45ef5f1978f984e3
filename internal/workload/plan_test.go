package workload

import (
	"maps"
	"reflect"
	"strings"
	"testing"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
	"zsim/internal/stats"
)

// simMetrics returns metrics.Default without the host-side runner.* family.
func simMetrics() metrics.Snapshot {
	s := metrics.Default.Snapshot()
	host := func(name string) bool { return strings.HasPrefix(name, "runner.") }
	maps.DeleteFunc(s.Counters, func(k string, _ uint64) bool { return host(k) })
	maps.DeleteFunc(s.Gauges, func(k string, _ metrics.GaugeSnapshot) bool { return host(k) })
	maps.DeleteFunc(s.Histograms, func(k string, _ metrics.HistogramSnapshot) bool { return host(k) })
	return s
}

// withMetrics runs f with metrics enabled on a reset metrics.Default.
func withMetrics(t *testing.T, f func()) {
	prev := metrics.Enable(true)
	defer func() {
		metrics.Enable(prev)
		metrics.Default.Reset()
	}()
	metrics.Default.Reset()
	f()
}

// TestStoreMetricsMatchFreshRuns: resolving a cell list that declares a
// cell more than once simulates each distinct cell once, yet leaves every
// simulated metric exactly where simulating each declared cell fresh would,
// and hands each declaration a private result.
func TestStoreMetricsMatchFreshRuns(t *testing.T) {
	p := memsys.Default(4)
	inv := cell{app: "is", scale: ScaleSmall, kind: memsys.KindRCInv, p: p}
	zmc := cell{app: "is", scale: ScaleSmall, kind: memsys.KindZMachine, p: p}
	cells := []cell{inv, zmc, inv, zmc, inv}

	var want metrics.Snapshot
	withMetrics(t, func() {
		for _, c := range cells {
			if _, _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		want = simMetrics()
	})
	if want.Counter("machine.runs") != uint64(len(cells)) {
		t.Fatalf("fresh runs counted %d machines, want %d", want.Counter("machine.runs"), len(cells))
	}

	withMetrics(t, func() {
		rs, err := (plan[int]{cells: cells}).results()
		if err != nil {
			t.Fatal(err)
		}
		if rs[0] == rs[2] {
			t.Error("two reads of one cell share a result")
		}
		if got := simMetrics(); !reflect.DeepEqual(got, want) {
			t.Fatalf("store metrics differ from fresh runs:\n got %s\nwant %s", got.String(), want.String())
		}
		if got := metrics.Default.Snapshot().Counter("runner.cells"); got != 2 {
			t.Errorf("store simulated %d cells, want 2 distinct", got)
		}
	})
}

// TestRegenerateRunsOneGrid: the default regeneration simulates every
// distinct cell of the index and the claims once, in a single grid, and
// each of its artifacts equals the experiment regenerated alone.
func TestRegenerateRunsOneGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration")
	}
	p := memsys.Default(16)
	distinct := map[cell]bool{}
	for _, e := range Experiments() {
		for _, c := range e.plan(ScaleSmall, p).cells {
			distinct[c] = true
		}
	}
	for _, c := range claimCells(ScaleSmall, p) {
		distinct[c] = true
	}

	var arts []Artifact
	var claims *stats.Table
	withMetrics(t, func() {
		var err error
		if arts, claims, _, err = Regenerate(ScaleSmall, p); err != nil {
			t.Fatal(err)
		}
		s := metrics.Default.Snapshot()
		if got := s.Counter("runner.grids"); got != 1 {
			t.Errorf("regeneration ran %d grids, want 1", got)
		}
		if got := s.Counter("runner.cells"); got != uint64(len(distinct)) {
			t.Errorf("regeneration simulated %d cells, want %d distinct", got, len(distinct))
		}
	})

	for i, e := range Experiments() {
		fresh, err := e.Run(ScaleSmall, p)
		if err != nil {
			t.Fatal(err)
		}
		if arts[i].Render() != fresh.Render() {
			t.Errorf("%s in the regeneration differs from a fresh run:\n%s\nvs\n%s", e.ID, arts[i].Render(), fresh.Render())
		}
	}
	fresh, _, err := EvaluateClaims(ScaleSmall, p)
	if err != nil {
		t.Fatal(err)
	}
	if claims.Render() != fresh.Render() {
		t.Errorf("claims in the regeneration differ from a fresh evaluation:\n%s\nvs\n%s", claims.Render(), fresh.Render())
	}
}

// TestRegenerationIsolatesResults: mutating a result inside an artifact the
// regeneration returned changes neither its other artifacts nor a later
// regeneration.
func TestRegenerationIsolatesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the regeneration twice")
	}
	p := memsys.Default(16)
	arts, claims, _, err := Regenerate(ScaleSmall, p)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(arts))
	for i, a := range arts {
		before[i] = a.Render()
	}
	fig := arts[1].(*stats.Figure) // E2: Figure 3, IS on the five systems
	r := fig.Results[1]            // IS × RCinv, also read by E12 and the claims
	if r.System != memsys.KindRCInv {
		t.Fatalf("Figure 3 result 1 is %s, want rcinv", r.System)
	}
	r.Procs[0].ReadStall += 1e6
	r.Procs[0].WriteStall += 1e6
	r.ExecTime++
	r.Counters.PerProcReads[0]++
	if fig.Render() == before[1] {
		t.Fatal("mutation did not reach the figure")
	}
	for i, a := range arts {
		if i != 1 && a.Render() != before[i] {
			t.Errorf("artifact %d changed with E2's result", i)
		}
	}

	again, againClaims, _, err := Regenerate(ScaleSmall, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range again {
		if a.Render() != before[i] {
			t.Errorf("artifact %d of a later regeneration sees the mutated result:\n%s\nvs\n%s", i, a.Render(), before[i])
		}
	}
	if againClaims.Render() != claims.Render() {
		t.Errorf("claims of a later regeneration differ:\n%s\nvs\n%s", againClaims.Render(), claims.Render())
	}
}
