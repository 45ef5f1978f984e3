package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zsim/internal/workload"
)

// runTiny runs a one-cell, one-pass (two when traced) run of a workload
// and returns its output and parsed result line.
func runTiny(t *testing.T, name string, trace bool, goldens Goldens) (string, Result) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: name, seed: DefaultSeed, seconds: 0, trace: trace, maxCells: 1,
		spansOut: filepath.Join(t.TempDir(), "spans.json"), benchtime: "20x"}
	if err := run(&out, o, goldens); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	return out.String(), r
}

func mustGoldens(t *testing.T) Goldens {
	t.Helper()
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTinyPassPrintsEveryMetric(t *testing.T) {
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			defs := endToEnd()
			if trace {
				defs = perLayer()
			}
			out, r := runTiny(t, w.Name, trace, mustGoldens(t))
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, r.Correct, r.Failed, r.Attempted, out)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(out, "metric "+d.Name+" ") {
					t.Errorf("%s trace=%v: no printed line for %s", w.Name, trace, d.Name)
				}
			}
			if trace && !strings.Contains(out, "self time per layer") {
				t.Errorf("%s: traced run printed no self-time table", w.Name)
			}
		}
	}
}

func TestPerturbedGoldenFails(t *testing.T) {
	g := mustGoldens(t)
	w := Workloads()[0]
	key := goldenKey(w.Name, &w.Cells[0])
	bad := make(Goldens, len(g))
	for k, v := range g {
		bad[k] = v
	}
	perturbed := Golden{Digest: g[key].Digest, Counters: map[string]uint64{}}
	for n, v := range g[key].Counters {
		perturbed.Counters[n] = v
	}
	perturbed.Counters["sim.yields"]++
	bad[key] = perturbed
	out, r := runTiny(t, w.Name, false, bad)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("perturbed golden passed:\n%s", out)
	}
	if !strings.Contains(out, "sim.yields = ") || !strings.Contains(out, "failed_frac 1.000000") {
		t.Errorf("output does not name the drifted counter and failed_frac:\n%s", out)
	}
}

func TestGoldensCoverEveryCell(t *testing.T) {
	g := mustGoldens(t)
	seen := map[string]bool{}
	for _, w := range Workloads() {
		for i := range w.Cells {
			k := goldenKey(w.Name, &w.Cells[i])
			if _, ok := g[k]; !ok {
				t.Errorf("no golden for %s", k)
			}
			seen[k] = true
		}
	}
	for k := range g {
		if !seen[k] {
			t.Errorf("stale golden %s", k)
		}
	}
}

func TestSeedsChangeInputsThatStillVerify(t *testing.T) {
	a, err := configsFor(workload.ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := configsFor(workload.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.intsort.Seed == b.intsort.Seed || a.maxflow.Seed == b.maxflow.Seed || a.barneshut.Seed == b.barneshut.Seed {
		t.Fatalf("seeds 2 and 3 share an input: %+v vs %+v", a, b)
	}
	for _, w := range Workloads() {
		if w.Name != "matrix-small" {
			continue
		}
		for i := range w.Cells {
			c := &w.Cells[i]
			if c.App == "cholesky" || c.Kind != "rcinv" || c.Params.FiniteCache {
				continue
			}
			ra, rb := runCell(c, a, nil, false), runCell(c, b, nil, false)
			if ra.err != nil || rb.err != nil {
				t.Fatalf("%s: seed 2: %v, seed 3: %v", c.Name, ra.err, rb.err)
			}
			if ra.obs.Digest == rb.obs.Digest {
				t.Errorf("%s: seeds 2 and 3 simulated identically", c.Name)
			}
		}
	}
}

func TestNoRemovedKernelAPIs(t *testing.T) {
	// Spelled in pieces so this file does not name them either.
	banned := []string{"Kernel" + "Shards", "Sync" + "Local", "Sync" + "Scoped", "Shard" + "Of",
		"MinCross" + "ShardLatency", "machine" + ".scope", "Eng.Win" + "dows", "Eng.Str" + "eams"}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // directories
		}
		for _, name := range banned {
			if bytes.Contains(b, []byte(name)) {
				t.Errorf("%s names %s, which the sharded-kernel retirement removes", f, name)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, want %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd()}, {"per_layer", spec.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, want %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestTailAndMedian(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if v, p, n := tail(xs); v != 990 || p != 99 || n != 1000 {
		t.Errorf("tail of 1..1000 = %v p%d n=%d, want 990 p99 n=1000", v, p, n)
	}
	if v, p, _ := tail(xs[:12]); v != 2 || p != 16 {
		t.Errorf("tail of 1..12 = %v p%d, want 2 p16", v, p)
	}
	if v, p, _ := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v p%d, want the maximum", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "cell", Start: 40, End: 90}, // overlaps the first
		{ID: 4, Parent: 2, Name: "run", Start: 20, End: 50},
	}
	self := SelfTimes(spans)
	want := map[string]float64{"pass": 20e-9, "cell": 70e-9, "run": 30e-9}
	for n, w := range want {
		if d := self[n] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %v, want %v", n, self[n], w)
		}
	}
}
