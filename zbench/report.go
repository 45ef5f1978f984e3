package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units (the self-test keeps them in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run: host time and memory as a
// user of the simulator sees them, plus the model's error against the
// paper.
func endToEnd() []metricDef {
	return []metricDef{
		{"wall_s", "s"},
		{"traps_per_s", "1/s"},
		{"cell_p50_ms", "ms"},
		{"cell_tail_ms", "ms"},
		{"setup_s", "s"},
		{"alloc_mb", "MB"},
		{"peak_rss_mb", "MB"},
		{"overhead_err_pp", "pp"},
	}
}

// perLayer are the metrics of a traced run.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.yields", "count"},
		{"sim.switches", "count"},
		{"sim.blocks", "count"},
		{"sim.fastpath_frac", "ratio"},
		{"directory.allocs", "count"},
		{"cache.evictions", "count"},
		{"mesh.msgs", "count"},
		{"mesh.hops_mean", "hops"},
		{"proto.read_miss_frac", "ratio"},
		{"proto.useless_update_frac", "ratio"},
		{"workload.new_app_s", "s"},
		{"machine.new_s", "s"},
		{"apps.setup_s", "s"},
		{"machine.run_s", "s"},
		{"apps.verify_s", "s"},
		{"golden.check_s", "s"},
		{"runner.wait_s", "s"},
		{"runner.busy_frac", "ratio"},
		{"host.gc_cycles", "count"},
		{"host.gc_cpu_s", "s"},
		{"host.mallocs", "count"},
		{"host.sched_latency_p50_us", "us"},
		{"failed_frac", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, mb := range microBenches(DefaultSeed) {
		name, ok := strings.CutPrefix(mb.name, "machine.new_ms.")
		if !ok {
			defs = append(defs, metricDef{mb.name, "ns"})
			continue
		}
		defs = append(defs, metricDef{mb.name, "ms"}, metricDef{"machine.new_mb." + name, "MB"})
	}
	return append(defs,
		metricDef{"memsys.paged_first_touch_bytes", "B"},
		metricDef{"directory.entry_cold_bytes", "B"})
}

// Value is one metric in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// median returns the middle value (the mean of the two middle values for
// an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// beyond it (nearest rank), the percentile, and the sample count. With ten
// samples or fewer it returns the maximum as p100.
func tail(xs []float64) (v float64, pct int, n int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for p := 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p, n
		}
	}
	return s[n-1], 100, n
}

// summary reduces a run's passes to metric values.
type summary struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable detail printed beside the metrics
}

// summarize computes the end-to-end metrics over the untraced passes of an
// untraced run, or the per-layer metrics over the traced passes of a traced
// run. Failures count over all passes.
func summarize(w workloadSpec, passes []passRun, peakRSS uint64) summary {
	s := summary{values: map[string]float64{}}
	var plain, traced []passRun
	for _, p := range passes {
		for _, c := range p.cells {
			s.attempted++
			if c.err != nil {
				s.failed++
			}
		}
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	if s.attempted > 0 {
		s.values["failed_frac"] = float64(s.failed) / float64(s.attempted)
	}
	if len(traced) == 0 {
		s.endToEnd(plain, peakRSS)
		return s
	}
	s.perLayer(w, traced)
	s.values["trace.overhead_ratio"] = medianOf(traced, wallOf) / medianOf(plain, wallOf)
	return s
}

func wallOf(p passRun) float64 { return p.wall.Seconds() }

func medianOf(ps []passRun, f func(passRun) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func (s *summary) endToEnd(ps []passRun, peakRSS uint64) {
	v := s.values
	v["wall_s"] = medianOf(ps, wallOf)
	v["traps_per_s"] = medianOf(ps, func(p passRun) float64 {
		var y uint64
		for _, c := range p.cells {
			y += c.obs.Counters["sim.yields"]
		}
		return float64(y) / p.wall.Seconds()
	})
	var cellMs, passP50 []float64
	setups := make(map[string][]float64)
	for _, p := range ps {
		var ms []float64
		for _, c := range p.cells {
			ms = append(ms, float64(c.done.Sub(c.t[0]).Nanoseconds())/1e6)
			setups[c.spec.Name] = append(setups[c.spec.Name], c.setup().Seconds())
		}
		cellMs = append(cellMs, ms...)
		passP50 = append(passP50, median(ms))
	}
	// The median is taken per pass, then over passes: a pooled median of
	// two cell kinds (manycore) would fall between the kinds' extremes.
	v["cell_p50_ms"] = median(passP50)
	t, pct, n := tail(cellMs)
	v["cell_tail_ms"] = t
	s.notes = append(s.notes, fmt.Sprintf("cell_tail_ms is p%d of %d cell samples", pct, n))
	// Each cell's median set-up over the passes, summed over cells.
	for _, xs := range setups {
		v["setup_s"] += median(xs)
	}
	v["alloc_mb"] = medianOf(ps, func(p passRun) float64 { return float64(p.host.allocBytes) / 1e6 })
	v["peak_rss_mb"] = float64(peakRSS) / 1e6
	// The model's error against the paper's bar labels is deterministic
	// per input, so the first pass gives it, over every cell that ran.
	var gap float64
	var labelled int
	for _, c := range ps[0].cells {
		if c.spec.Label >= 0 && !c.t[4].IsZero() {
			gap += math.Abs(c.overhead - c.spec.Label)
			labelled++
		}
	}
	if labelled > 0 {
		v["overhead_err_pp"] = gap / float64(labelled)
	}
}

func (s *summary) perLayer(w workloadSpec, ps []passRun) {
	v := s.values
	// Simulated counts are identical in every traced pass; take the last.
	var sum = func(name string) float64 {
		var t uint64
		for _, c := range ps[len(ps)-1].cells {
			t += c.snap.Counter(name)
		}
		return float64(t)
	}
	for _, n := range []string{"sim.yields", "sim.switches", "sim.blocks", "directory.allocs", "cache.evictions", "mesh.msgs"} {
		v[n] = sum(n)
	}
	v["sim.fastpath_frac"] = ratio(sum("sim.fastpath_hits"), sum("sim.yields"))
	v["proto.read_miss_frac"] = ratio(sum("proto.read_misses"), sum("proto.reads"))
	v["proto.useless_update_frac"] = ratio(sum("proto.useless_updates"), sum("proto.updates"))
	var hops, msgs uint64
	for _, c := range ps[len(ps)-1].cells {
		h := c.snap.Histograms["mesh.hops"]
		hops += h.Sum
		msgs += h.Count
	}
	v["mesh.hops_mean"] = ratio(float64(hops), float64(msgs))

	// Span self times per pass, from the phase boundaries the spans record.
	phase := make([][]float64, numPhases)
	var waits, busy []float64
	for _, p := range ps {
		sums := make([]float64, numPhases)
		var wait, work float64
		for _, c := range p.cells {
			for k := 0; k < numPhases; k++ {
				if !c.t[k+1].IsZero() {
					sums[k] += c.t[k+1].Sub(c.t[k]).Seconds()
				}
			}
			wait += c.t[0].Sub(p.start).Seconds()
			work += c.done.Sub(c.t[0]).Seconds()
		}
		for k := range sums {
			phase[k] = append(phase[k], sums[k])
		}
		waits = append(waits, wait)
		busy = append(busy, work/(float64(w.Parallelism)*p.wall.Seconds()))
	}
	for k, name := range phaseNames {
		v[name+"_s"] = median(phase[k])
	}
	v["runner.wait_s"] = median(waits)
	v["runner.busy_frac"] = median(busy)

	deltas := make([]hostDelta, len(ps))
	for i, p := range ps {
		deltas[i] = p.host
	}
	v["host.gc_cycles"] = medianOf(ps, func(p passRun) float64 { return float64(p.host.gcCycles) })
	v["host.gc_cpu_s"] = medianOf(ps, func(p passRun) float64 { return p.host.gcCPU })
	v["host.mallocs"] = medianOf(ps, func(p passRun) float64 { return float64(p.host.mallocs) })
	v["host.sched_latency_p50_us"] = schedP50(deltas) * 1e6
}

// addMicro folds microbenchmark results into the per-layer metrics.
func (s *summary) addMicro(rs []microResult) {
	for _, r := range rs {
		if name, ok := strings.CutPrefix(r.name, "machine.new_ms."); ok {
			s.values[r.name] = r.nsPerOp / 1e6
			s.values["machine.new_mb."+name] = r.bytesPerOp / 1e6
			continue
		}
		s.values[r.name] = r.nsPerOp
		switch r.name {
		case "memsys.paged_first_touch_ns":
			s.values["memsys.paged_first_touch_bytes"] = r.bytesPerOp
		case "directory.entry_cold_ns":
			s.values["directory.entry_cold_bytes"] = r.bytesPerOp
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit prints every declared metric by name with its unit, then the
// result line. A declared metric without a value is an error: the result
// would silently lack it.
func emit(out io.Writer, defs []metricDef, s summary) error {
	res := Result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]Value{}}
	for _, d := range defs {
		v, ok := s.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = Value{v, d.Unit}
		fmt.Fprintf(out, "metric %-34s %16.6f %s\n", d.Name, v, d.Unit)
	}
	for _, n := range s.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
