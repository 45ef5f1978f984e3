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

// TestStoreMetricsMatchFreshRuns: resolving cell lists against a store
// (a duplicate within one list, a hit across lists) leaves every simulated
// metric exactly where simulating each declared cell fresh would.
func TestStoreMetricsMatchFreshRuns(t *testing.T) {
	prev := metrics.Enable(true)
	defer func() {
		metrics.Enable(prev)
		metrics.Default.Reset()
	}()
	p := memsys.Default(4)
	inv := cell{app: "is", scale: ScaleSmall, kind: memsys.KindRCInv, p: p}
	zmc := cell{app: "is", scale: ScaleSmall, kind: memsys.KindZMachine, p: p}
	lists := [][]cell{{inv, zmc, inv}, {zmc}}

	metrics.Default.Reset()
	for _, l := range lists {
		for _, c := range l {
			if _, _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := simMetrics()
	if want.Counter("machine.runs") != 4 {
		t.Fatalf("fresh runs counted %d machines, want 4", want.Counter("machine.runs"))
	}

	metrics.Default.Reset()
	s := store{}
	for _, l := range lists {
		if _, err := (plan[int]{cells: l}).results(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := simMetrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store metrics differ from fresh runs:\n got %s\nwant %s", got.String(), want.String())
	}
	if got := metrics.Default.Snapshot().Counter("runner.cells"); got != 2 {
		t.Errorf("store simulated %d cells, want 2 distinct", got)
	}
}

// TestRegenerationIsolatesResults: mutating a result one experiment
// returned changes neither another experiment that shares the cell nor a
// later claim lookup.
func TestRegenerationIsolatesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the claims twice")
	}
	p := memsys.Default(16)
	g := NewRegeneration(ScaleSmall, p)
	exps := Experiments()
	art, err := g.Run(exps[1]) // E2: Figure 3, IS on the five systems
	if err != nil {
		t.Fatal(err)
	}
	fig := art.(*stats.Figure)
	before := fig.Render()
	r := fig.Results[1] // IS × RCinv
	if r.System != memsys.KindRCInv {
		t.Fatalf("Figure 3 result 1 is %s, want rcinv", r.System)
	}
	r.Procs[0].ReadStall += 1e6
	r.Procs[0].WriteStall += 1e6
	r.ExecTime++
	r.Counters.PerProcReads[0]++
	if fig.Render() == before {
		t.Fatal("mutation did not reach the figure")
	}

	again, err := g.Run(exps[1])
	if err != nil {
		t.Fatal(err)
	}
	if again.Render() != before {
		t.Error("rerunning E2 on the shared store sees the mutated result")
	}
	shared, err := g.Run(exps[11]) // E12: SCinv vs RCinv, holds IS × RCinv
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SCvsRC(ScaleSmall, p)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Render() != fresh.Render() {
		t.Errorf("E12 on the shared store differs from a fresh run:\n%s\nvs\n%s", shared.Render(), fresh.Render())
	}
	claims, _, err := g.Claims()
	if err != nil {
		t.Fatal(err)
	}
	freshClaims, _, err := EvaluateClaims(ScaleSmall, p)
	if err != nil {
		t.Fatal(err)
	}
	if claims.Render() != freshClaims.Render() {
		t.Errorf("claims on the shared store differ from a fresh evaluation:\n%s\nvs\n%s", claims.Render(), freshClaims.Render())
	}
}
