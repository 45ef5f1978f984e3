package benchrec

import (
	"path/filepath"
	"strings"
	"testing"

	"zsim/internal/metrics"
)

func sampleRecord() *Record {
	// Snapshot is built literally: this test must not flip the
	// process-wide metrics switch or touch the global aggregate.
	s := metrics.Snapshot{Counters: map[string]uint64{
		"sim.switches":      1000,
		"sim.fastpath_hits": 9000,
		"sim.yields":        10000,
		"mesh.msgs":         500,
	}}
	return &Record{
		Timestamp: "2026-08-05T00:00:00Z",
		Scale:     "small",
		Procs:     16,
		Parallel:  4,
		Experiments: []Entry{
			{ID: "E1", Title: "one", WallMS: 100},
			{ID: "E2", Title: "two", WallMS: 200},
		},
		ClaimsWallMS:      50,
		TotalWallMS:       350,
		ExperimentsPerSec: 8,
		Metrics:           &s,
	}
}

func TestParseTolerance(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  bool
	}{
		{"25%", 0.25, false},
		{"0.25", 0.25, false},
		{" 10 % ", 0.10, false},
		{"0", 0, false},
		{"-5%", 0, true},
		{"abc", 0, true},
	}
	for _, c := range cases {
		got, err := ParseTolerance(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseTolerance(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseTolerance(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDiffSelfCompareIsClean(t *testing.T) {
	r := sampleRecord()
	deltas, regressed := Diff(r, r, Options{Tolerance: 0.25})
	if regressed {
		t.Fatalf("self-comparison regressed:\n%s", Format(deltas, Options{}))
	}
	for _, d := range deltas {
		if d.Pct != 0 {
			t.Fatalf("self-comparison has nonzero delta %q: %v%%", d.Name, d.Pct)
		}
	}
}

func TestDiffCatchesTimingRegression(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	cur.Experiments[1].WallMS = old.Experiments[1].WallMS * 1.30 // past 25%
	deltas, regressed := Diff(old, cur, Options{Tolerance: 0.25})
	if !regressed {
		t.Fatalf("30%% slowdown not flagged:\n%s", Format(deltas, Options{}))
	}
	found := false
	for _, d := range deltas {
		if d.Name == "E2 wall_ms" && d.Regression {
			found = true
		}
	}
	if !found {
		t.Fatalf("E2 wall_ms not marked as the regression:\n%s", Format(deltas, Options{}))
	}
}

func TestDiffWithinToleranceIsClean(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	cur.Experiments[1].WallMS = old.Experiments[1].WallMS * 1.20 // within 25%
	cur.TotalWallMS = old.TotalWallMS * 1.20
	if _, regressed := Diff(old, cur, Options{Tolerance: 0.25}); regressed {
		t.Fatal("20% slowdown flagged at 25% tolerance")
	}
}

func TestDiffMinWallFloor(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	old.Experiments[0].WallMS = 2 // tiny: noise-dominated
	cur.Experiments[0].WallMS = 9 // 4.5x, but below floor
	deltas, regressed := Diff(old, cur, Options{Tolerance: 0.25, MinWallMS: 10})
	if regressed {
		t.Fatalf("sub-floor timing failed the gate:\n%s", Format(deltas, Options{}))
	}
	// Without the floor it must fail.
	if _, regressed := Diff(old, cur, Options{Tolerance: 0.25}); !regressed {
		t.Fatal("4.5x slowdown above floor not flagged")
	}
}

func TestDiffThroughputRegression(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	cur.ExperimentsPerSec = old.ExperimentsPerSec * 0.5
	if _, regressed := Diff(old, cur, Options{Tolerance: 0.25}); !regressed {
		t.Fatal("halved throughput not flagged")
	}
}

func TestDiffMetricRegressionBothDirections(t *testing.T) {
	old := sampleRecord()

	up := sampleRecord()
	s := *up.Metrics
	s.Counters = map[string]uint64{"sim.switches": 2000, "sim.fastpath_hits": 9000, "mesh.msgs": 500}
	up.Metrics = &s
	if _, regressed := Diff(old, up, Options{Tolerance: 0.25}); !regressed {
		t.Fatal("doubled sim.switches not flagged")
	}

	down := sampleRecord()
	s2 := *down.Metrics
	s2.Counters = map[string]uint64{"sim.switches": 1000, "sim.fastpath_hits": 4000, "mesh.msgs": 500}
	down.Metrics = &s2
	if _, regressed := Diff(old, down, Options{Tolerance: 0.25}); !regressed {
		t.Fatal("halved sim.fastpath_hits not flagged")
	}
}

func TestDiffMissingMetricsSection(t *testing.T) {
	old := sampleRecord()
	old.Metrics = nil
	cur := sampleRecord()
	deltas, regressed := Diff(old, cur, Options{Tolerance: 0.25})
	if regressed {
		t.Fatal("missing baseline metrics section treated as regression")
	}
	found := false
	for _, d := range deltas {
		if strings.Contains(d.Note, "no metrics section") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing metrics section not noted:\n%s", Format(deltas, Options{}))
	}
}

func TestDiffExperimentSetDrift(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	cur.Experiments = append(cur.Experiments, Entry{ID: "E9", Title: "new", WallMS: 42})
	old.Experiments = append(old.Experiments, Entry{ID: "E0", Title: "gone", WallMS: 7})
	deltas, regressed := Diff(old, cur, Options{Tolerance: 0.25})
	if regressed {
		t.Fatalf("experiment-set drift treated as regression:\n%s", Format(deltas, Options{}))
	}
	var onlyNew, onlyOld bool
	for _, d := range deltas {
		if d.Name == "E9 wall_ms" && d.Note == "only in new" {
			onlyNew = true
		}
		if d.Name == "E0 wall_ms" && d.Note == "only in old" {
			onlyOld = true
		}
	}
	if !onlyNew || !onlyOld {
		t.Fatalf("set drift not noted (onlyNew=%v onlyOld=%v):\n%s", onlyNew, onlyOld, Format(deltas, Options{}))
	}
}

func TestLoadWriteRoundTrip(t *testing.T) {
	r := sampleRecord()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWallMS != r.TotalWallMS || len(got.Experiments) != len(r.Experiments) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Metrics == nil || got.Metrics.Counter("sim.switches") != 1000 {
		t.Fatalf("metrics section lost in round trip: %+v", got.Metrics)
	}
	if deltas, regressed := Diff(r, got, Options{Tolerance: 0}); regressed {
		t.Fatalf("round-tripped record differs:\n%s", Format(deltas, Options{}))
	}
}

func TestFormatMarksRegressions(t *testing.T) {
	old := sampleRecord()
	cur := sampleRecord()
	cur.Experiments[0].WallMS = 1000
	deltas, _ := Diff(old, cur, Options{Tolerance: 0.25})
	out := Format(deltas, Options{})
	if !strings.Contains(out, "! E1 wall_ms") {
		t.Fatalf("regression not marked with '!':\n%s", out)
	}
	if !strings.Contains(out, "quantity") {
		t.Fatalf("missing header:\n%s", out)
	}
}

// TestDiffMetricsOnly pins the identity gate: with MetricsOnly, wall-time
// and throughput deltas never regress (only the simulated metrics count),
// and any metric drift — in either direction, including an improvement —
// past MetricTolerance fails. This is the cross-host identity gate: wall
// times legitimately differ, simulated metrics must not.
func TestDiffMetricsOnly(t *testing.T) {
	opts := Options{MetricsOnly: true} // MetricTolerance 0 = exact identity

	// Wildly different timings, identical metrics: clean.
	slow := sampleRecord()
	for i := range slow.Experiments {
		slow.Experiments[i].WallMS *= 10
	}
	slow.TotalWallMS *= 10
	slow.ExperimentsPerSec /= 10
	deltas, regressed := Diff(sampleRecord(), slow, opts)
	if regressed {
		t.Fatalf("timing drift regressed a metrics-only diff:\n%s", Format(deltas, opts))
	}

	// A metric IMPROVEMENT (fewer switches) still fails the identity gate.
	drift := sampleRecord()
	s := *drift.Metrics
	s.Counters = map[string]uint64{"sim.switches": 999, "sim.fastpath_hits": 9000, "sim.yields": 10000, "mesh.msgs": 500}
	drift.Metrics = &s
	if _, regressed := Diff(sampleRecord(), drift, opts); !regressed {
		t.Fatal("one-count metric drift passed the exact identity gate")
	}

	// With a nonzero MetricTolerance, small drift passes, large fails.
	loose := Options{MetricsOnly: true, MetricTolerance: 0.01}
	if _, regressed := Diff(sampleRecord(), drift, loose); regressed {
		t.Fatal("0.1% drift failed a 1% metrics-only gate")
	}
}

// TestDiffGatesSwitchSplit pins that the switch/fast-path split is gated
// on every comparison, not only its sum: a run that keeps the same number
// of scheduling points (sim.yields) but takes more of them as full channel
// handoffs has lost fast-path hits, and both counters must flag it.
func TestDiffGatesSwitchSplit(t *testing.T) {
	shifted := sampleRecord()
	s := *shifted.Metrics
	s.Counters = map[string]uint64{
		"sim.switches": 2000, "sim.fastpath_hits": 8000, "sim.yields": 10000, "mesh.msgs": 500,
	}
	shifted.Metrics = &s

	for _, opts := range []Options{{Tolerance: 0.25}, {MetricsOnly: true}} {
		deltas, regressed := Diff(sampleRecord(), shifted, opts)
		if !regressed {
			t.Fatalf("shifted switch/fast-path split passed the gate (%+v):\n%s", opts, Format(deltas, opts))
		}
		flagged := map[string]bool{}
		for _, d := range deltas {
			if d.Regression {
				flagged[d.Name] = true
			}
		}
		if !flagged["metric sim.switches"] {
			t.Errorf("sim.switches regression not flagged (%+v):\n%s", opts, Format(deltas, opts))
		}
		if flagged["metric sim.yields"] {
			t.Errorf("unchanged sim.yields flagged (%+v):\n%s", opts, Format(deltas, opts))
		}
	}
}

func curveRecord() *Record {
	r := sampleRecord()
	r.Curves = []Curve{{
		ID: "S2", App: "is", System: "rcinv",
		Points: []CurvePoint{
			{Procs: 64, ExecCycles: 1000, ReadStall: 400, WriteStall: 50, BufferFlush: 20, SyncWait: 300, OverheadPct: 40},
			{Procs: 256, ExecCycles: 5000, ReadStall: 2500, WriteStall: 300, BufferFlush: 90, SyncWait: 1800, OverheadPct: 55},
		},
	}}
	return r
}

// TestDiffCurves: curve points are simulated quantities — gated like
// watched metrics (higher is worse normally; any drift fails the identity
// gate), and set growth is informational.
func TestDiffCurves(t *testing.T) {
	opts := Options{Tolerance: 0.25, MetricTolerance: 0.1}

	// Identical curves: clean.
	if deltas, regressed := Diff(curveRecord(), curveRecord(), opts); regressed {
		t.Fatalf("self-compare regressed:\n%s", Format(deltas, opts))
	}

	// A point's exec cycles grow past metric tolerance: regression.
	worse := curveRecord()
	worse.Curves[0].Points[1].ExecCycles = 6000 // +20% > 10%
	deltas, regressed := Diff(curveRecord(), worse, opts)
	if !regressed {
		t.Fatalf("curve-point growth passed the gate:\n%s", Format(deltas, opts))
	}

	// A DROP in exec cycles is an improvement in the normal mode...
	better := curveRecord()
	better.Curves[0].Points[1].ExecCycles = 4000
	if deltas, regressed := Diff(curveRecord(), better, opts); regressed {
		t.Fatalf("curve-point improvement regressed:\n%s", Format(deltas, opts))
	}
	// ...but fails the exact identity gate (two runs must agree).
	ident := Options{MetricsOnly: true}
	if _, regressed := Diff(curveRecord(), better, ident); !regressed {
		t.Fatal("curve drift passed the exact identity gate")
	}

	// New curves and new points are informational, not regressions.
	grown := curveRecord()
	grown.Curves[0].Points = append(grown.Curves[0].Points,
		CurvePoint{Procs: 1024, ExecCycles: 30000})
	grown.Curves = append(grown.Curves, Curve{ID: "S3", App: "maxflow", System: "rcinv",
		Points: []CurvePoint{{Procs: 64, ExecCycles: 700}}})
	deltas, regressed = Diff(curveRecord(), grown, opts)
	if regressed {
		t.Fatalf("curve growth regressed:\n%s", Format(deltas, opts))
	}
	var sawPoint, sawCurve bool
	for _, d := range deltas {
		if d.Name == "curve S2 P=1024" && d.Note == "only in new" {
			sawPoint = true
		}
		if d.Name == "curve S3" && d.Note == "only in new" {
			sawCurve = true
		}
	}
	if !sawPoint || !sawCurve {
		t.Fatalf("growth notes missing (point %v, curve %v):\n%s", sawPoint, sawCurve, Format(deltas, opts))
	}
}

// TestCurveRoundTrip: curves survive the Write/Load cycle.
func TestCurveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_curves.json")
	if err := curveRecord().Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Curves) != 1 || got.Curves[0].ID != "S2" || len(got.Curves[0].Points) != 2 {
		t.Fatalf("curves lost in round trip: %+v", got.Curves)
	}
	if p := got.Curves[0].Points[1]; p.Procs != 256 || p.ExecCycles != 5000 || p.OverheadPct != 55 {
		t.Fatalf("point lost in round trip: %+v", p)
	}
}
