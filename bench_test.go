package zsim

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benches for the design parameters discussed in §6/§7.
//
// Benchmarks execute complete simulations at the reduced ("small") scale so
// `go test -bench=.` finishes in minutes; `cmd/paperbench -scale paper`
// regenerates the artifacts at the paper's exact problem sizes.
// Reported custom metrics carry the figures' headline numbers: the
// per-system overhead percentage (the number printed on top of each bar in
// Figures 2-5) and, for Table 1, the z-machine's observed cost.

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

func benchScale() Scale {
	if os.Getenv("ZSIM_PAPER_SCALE") != "" {
		return ScalePaper
	}
	return ScaleSmall
}

// benchFigure regenerates one figure per iteration and reports each
// system's overhead percentage as a metric.
func benchFigure(b *testing.B, n int) {
	b.Helper()
	b.ReportAllocs()
	params := DefaultParams(16)
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = PaperFigure(n, benchScale(), params)
		if err != nil {
			b.Fatal(err)
		}
	}
	var cycles Time
	for _, r := range fig.Results {
		b.ReportMetric(r.OverheadPct(), string(r.System)+"_ovh_%")
		cycles += r.ExecTime
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkFig2Cholesky regenerates Figure 2: Cholesky on the five systems.
func BenchmarkFig2Cholesky(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFig3IS regenerates Figure 3: Integer Sort on the five systems.
func BenchmarkFig3IS(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFig4Maxflow regenerates Figure 4: Maxflow on the five systems.
func BenchmarkFig4Maxflow(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFig5BarnesHut regenerates Figure 5: Barnes-Hut on the five
// systems.
func BenchmarkFig5BarnesHut(b *testing.B) { benchFigure(b, 5) }

// BenchmarkTable1ZMachine regenerates Table 1: inherent communication and
// observed costs on the z-machine for all four applications.
func BenchmarkTable1ZMachine(b *testing.B) {
	b.ReportAllocs()
	params := DefaultParams(16)
	var results []*Result
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = PaperTable1(benchScale(), params)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(float64(r.Counters.Writes), r.App+"_writes")
		b.ReportMetric(float64(r.TotalReadStall()), r.App+"_observed_cycles")
	}
}

// BenchmarkZvsPRAM regenerates the §5 headline comparison: z-machine
// execution time vs PRAM, per application (the ratios should be ≈1).
func BenchmarkZvsPRAM(b *testing.B) {
	b.ReportAllocs()
	params := DefaultParams(16)
	for i := 0; i < b.N; i++ {
		for _, app := range Benchmarks() {
			z, err := RunBenchmark(app, benchScale(), ZMachine, params)
			if err != nil {
				b.Fatal(err)
			}
			p, err := RunBenchmark(app, benchScale(), PRAM, params)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(z.ExecTime)/float64(p.ExecTime), app+"_z/pram")
			}
		}
	}
}

// BenchmarkSCvsRC contrasts the sequentially consistent baseline with
// release consistency (extra experiment E12).
func BenchmarkSCvsRC(b *testing.B) {
	b.ReportAllocs()
	params := DefaultParams(16)
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"is", "maxflow"} {
			sc, err := RunBenchmark(app, benchScale(), SCInv, params)
			if err != nil {
				b.Fatal(err)
			}
			rc, err := RunBenchmark(app, benchScale(), RCInv, params)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(sc.ExecTime)/float64(rc.ExecTime), app+"_sc/rc")
			}
		}
	}
}

// BenchmarkAblationStoreBuffer sweeps the store buffer depth on IS/RCinv
// (§6: write stall vs buffer size).
func BenchmarkAblationStoreBuffer(b *testing.B) {
	for _, entries := range []int{1, 2, 4, 8, 16} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.StoreBufEntries = entries
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("is", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.TotalWriteStall()), "write_stall_cycles")
			b.ReportMetric(float64(r.TotalBufferFlush()), "flush_cycles")
		})
	}
}

// BenchmarkAblationNetwork sweeps the link bandwidth on Maxflow/RCupd
// (§6: overheads vs relative network speed).
func BenchmarkAblationNetwork(b *testing.B) {
	for _, cpb := range []float64{0.4, 0.8, 1.6, 3.2} {
		cpb := cpb
		b.Run(fmt.Sprintf("cyc_per_byte=%.1f", cpb), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.LinkCyclesPerByte = cpb
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("maxflow", benchScale(), RCUpd, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.OverheadPct(), "overhead_%")
			b.ReportMetric(float64(r.ExecTime), "exec_cycles")
		})
	}
}

// BenchmarkAblationThreshold sweeps RCcomp's competitive threshold on
// Barnes-Hut.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.CompThreshold = th
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("nbody", benchScale(), RCComp, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.TotalReadStall()), "read_stall_cycles")
			b.ReportMetric(float64(r.Counters.SelfInvalidations), "self_inval")
		})
	}
}

// BenchmarkAblationFiniteCache contrasts the paper's infinite caches with
// finite ones on Barnes-Hut/RCinv (§7 open issue; the tree is re-traversed
// per body, so capacity misses actually appear — Cholesky streams and is
// capacity-insensitive).
func BenchmarkAblationFiniteCache(b *testing.B) {
	run := func(b *testing.B, params Params) {
		b.ReportAllocs()
		var r *Result
		for i := 0; i < b.N; i++ {
			var err error
			r, err = RunBenchmark("nbody", benchScale(), RCInv, params)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.Counters.ReadMisses), "read_misses")
		b.ReportMetric(float64(r.TotalReadStall()), "read_stall_cycles")
	}
	b.Run("infinite", func(b *testing.B) { run(b, DefaultParams(16)) })
	for _, lines := range []int{16, 64, 256} {
		lines := lines
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.FiniteCache = true
			params.CacheLines = lines
			params.CacheAssoc = 4
			run(b, params)
		})
	}
}

// BenchmarkAblationPrefetch sweeps the sequential prefetch degree on
// Cholesky/RCinv (§6: prefetching against cold misses).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, d := range []int{0, 1, 2, 4} {
		d := d
		b.Run(fmt.Sprintf("degree=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.PrefetchDegree = d
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("cholesky", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.TotalReadStall()), "read_stall_cycles")
			b.ReportMetric(float64(r.Counters.Prefetches), "prefetches")
		})
	}
}

// BenchmarkAblationMultithread sweeps hardware threads per node on
// Maxflow/RCinv with the node count fixed (§7 open issue: multithreading
// as latency tolerance).
func BenchmarkAblationMultithread(b *testing.B) {
	for _, th := range []int{1, 2, 4} {
		th := th
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultMTParams(4*th, th)
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("maxflow", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.ExecTime), "exec_cycles")
			b.ReportMetric(float64(r.TotalCoreWait()), "core_wait_cycles")
		})
	}
}

// BenchmarkAblationTopology sweeps the interconnect topology on
// Maxflow/RCinv (SPASM's "choice of network topologies").
func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []string{"mesh", "torus", "hypercube", "xbar", "bus"} {
		topo := topo
		b.Run(topo, func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.Topology = topo
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("maxflow", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.ExecTime), "exec_cycles")
			b.ReportMetric(r.OverheadPct(), "overhead_%")
		})
	}
}

// BenchmarkRCSyncProposal regenerates E15: the paper's §6 decoupling
// proposal (rcsync) against rcinv on every application.
func BenchmarkRCSyncProposal(b *testing.B) {
	b.ReportAllocs()
	params := DefaultParams(16)
	for i := 0; i < b.N; i++ {
		for _, app := range Benchmarks() {
			inv, err := RunBenchmark(app, benchScale(), RCInv, params)
			if err != nil {
				b.Fatal(err)
			}
			sy, err := RunBenchmark(app, benchScale(), RCSync, params)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(inv.ExecTime)/float64(sy.ExecTime), app+"_speedup")
			}
		}
	}
}

// BenchmarkAblationOrdering regenerates E17: Cholesky under the natural
// band ordering vs nested dissection.
func BenchmarkAblationOrdering(b *testing.B) {
	b.ReportAllocs()
	params := DefaultParams(16)
	for i := 0; i < b.N; i++ {
		t, err := OrderingSweep(benchScale(), RCInv, params)
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// BenchmarkAblationDirPointers regenerates E18: full-map vs Dir-i
// directories on Barnes-Hut/RCinv.
func BenchmarkAblationDirPointers(b *testing.B) {
	for _, ptrs := range []int{0, 2, 8} {
		ptrs := ptrs
		name := fmt.Sprintf("dir=%d", ptrs)
		if ptrs == 0 {
			name = "dir=full"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.DirPointers = ptrs
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("nbody", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Counters.PointerEvictions), "ptr_evictions")
			b.ReportMetric(float64(r.ExecTime), "exec_cycles")
		})
	}
}

// BenchmarkAblationLineSize regenerates E19: the coherence unit on
// IS/RCinv.
func BenchmarkAblationLineSize(b *testing.B) {
	for _, ls := range []int{8, 32, 128} {
		ls := ls
		b.Run(fmt.Sprintf("line=%d", ls), func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.LineSize = ls
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBenchmark("is", benchScale(), RCInv, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Counters.ReadMisses), "read_misses")
			b.ReportMetric(float64(r.ExecTime), "exec_cycles")
		})
	}
}

// BenchmarkCheckerOverhead measures the cost of running with the
// conformance checker attached against the plain run (acceptance budget:
// ≤2× slowdown). The checked/unchecked wall-time ratio is reported as a
// metric; compare with
//
//	go test -bench 'CheckerOverhead' -benchtime 5x
func BenchmarkCheckerOverhead(b *testing.B) {
	params := DefaultParams(16)
	run := func(b *testing.B, checked bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			app, err := NewBenchmark("is", benchScale())
			if err != nil {
				b.Fatal(err)
			}
			m, err := NewMachine(RCInv, params)
			if err != nil {
				b.Fatal(err)
			}
			if checked {
				m.EnableCheck()
			}
			if _, err := RunAppOn(app, m); err != nil {
				b.Fatal(err)
			}
			if checked {
				if err := m.Checker().Err(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("unchecked", func(b *testing.B) { run(b, false) })
	b.Run("checked", func(b *testing.B) { run(b, true) })
}

// BenchmarkMetricsOverhead measures the cost of running with metric
// recording enabled against the plain run (acceptance budget: ≤1.1×
// slowdown — the hot path keeps the same plain counts either way, and
// enabling adds only the end-of-run harvest). Compare with
//
//	go test -bench 'MetricsOverhead' -benchtime 20x
func BenchmarkMetricsOverhead(b *testing.B) {
	params := DefaultParams(16)
	run := func(b *testing.B, enabled bool) {
		b.ReportAllocs()
		prev := EnableMetrics(enabled)
		defer func() {
			EnableMetrics(prev)
			ResetGlobalMetrics()
		}()
		for i := 0; i < b.N; i++ {
			if _, err := RunBenchmark("is", benchScale(), RCInv, params); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// parallelLevels returns the worker bounds the grid benchmarks compare:
// serial, the 2x-speedup acceptance point, and every host core.
func parallelLevels() []int {
	levels := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		levels = append(levels, n)
	}
	return levels
}

// withParallelism runs f with the harness worker bound set to n, restoring
// the previous bound afterwards.
func withParallelism(n int, f func()) {
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

// BenchmarkLitmusSuite runs the full litmus suite (every test on every
// memory system, checker attached) at increasing worker-pool bounds; the
// sub-benchmark wall clocks expose the parallel runner's speedup (≥2x at
// parallel=4 on a ≥4-core host; output is identical at every setting).
func BenchmarkLitmusSuite(b *testing.B) {
	params := DefaultParams(4)
	for _, par := range parallelLevels() {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			withParallelism(par, func() {
				for i := 0; i < b.N; i++ {
					rs, err := RunLitmusSuite(Kinds(), params)
					if err != nil {
						b.Fatal(err)
					}
					if !LitmusOk(rs) {
						b.Fatalf("litmus suite not conformant:\n%s", LitmusReport(rs))
					}
				}
			})
		})
	}
}

// BenchmarkFigureGrid runs the paper's whole figure matrix — every figure
// application on every figure memory system, 20 independent simulations —
// through the worker pool at increasing bounds. This is the experiment
// grid the parallel runner was built for: cells are deterministic and
// independent, so wall clock should shrink near-linearly with cores while
// the assembled figures stay byte-identical.
func BenchmarkFigureGrid(b *testing.B) {
	params := DefaultParams(16)
	apps := Benchmarks()
	kinds := FigureKinds()
	n := len(apps) * len(kinds)
	for _, par := range parallelLevels() {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			withParallelism(par, func() {
				for i := 0; i < b.N; i++ {
					results, err := RunGrid(n, func(c int) (*Result, error) {
						return RunBenchmark(apps[c/len(kinds)], benchScale(), kinds[c%len(kinds)], params)
					})
					if err != nil {
						b.Fatal(err)
					}
					if len(results) != n {
						b.Fatalf("grid returned %d results, want %d", len(results), n)
					}
				}
			})
		})
	}
}

// BenchmarkAblationOracle regenerates E20: the z-machine's broadcast
// counter vs the perfect per-consumer oracle.
func BenchmarkAblationOracle(b *testing.B) {
	for _, mode := range []string{"broadcast", "perfect"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			params := DefaultParams(16)
			params.ZOracle = mode
			var total Time
			for i := 0; i < b.N; i++ {
				total = 0
				for _, app := range Benchmarks() {
					r, err := RunBenchmark(app, benchScale(), ZMachine, params)
					if err != nil {
						b.Fatal(err)
					}
					total += r.TotalReadStall()
				}
			}
			b.ReportMetric(float64(total), "inherent_stall_cycles")
		})
	}
}
