// Command zbench is zsim's benchmark. It drives simulation cells (one
// application × one memory system × one Params) through the simulator's
// public entry points — the applications' Config constructors,
// machine.New, App.Setup, Machine.Run, App.Verify and runner.Grid — times
// every call from outside the program, checks each cell's simulated Result
// against committed goldens, and times each layer's public functions in
// isolation. See README.md for the workloads and metrics.
//
//	go run . --workload matrix-small --seed 1 --seconds 20 --trace 0
//
// The last line of output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
// (untraced passes); with --trace 1 they are the per-layer ones (traced
// passes, span self times, metrics-registry counts and microbenchmarks).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	spansOut  string // traced runs write their spans here
	benchtime string // testing -benchtime of each microbenchmark
	maxCells  int    // test hook: run only the first n cells of each pass (0 = all)
}

func main() {
	fs := flag.NewFlagSet("zbench", flag.ExitOnError)
	var o options
	var trace int
	var update string
	fs.StringVar(&o.workload, "workload", "", "workload: matrix-small, paper-long or manycore")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "input seed; goldens are checked at the default")
	fs.IntVar(&o.seconds, "seconds", 20, "measured time on the reference host; sets the pass count")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&update, "update-golden", "", "record every workload's goldens at the default seed into this file and exit")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	o.trace = trace == 1
	o.spansOut = fmt.Sprintf(".bench_build/zbench-spans-%s-%d.json", o.workload, o.seed)
	o.benchtime = "300ms"
	var err error
	if update != "" {
		err = updateGoldens(update)
	} else {
		var goldens Goldens
		if goldens, err = loadGoldens(); err == nil {
			err = run(os.Stdout, o, goldens)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
}

// passCount is the number of passes a run of the given length measures.
// Traced runs alternate untraced and traced passes, so they need two.
func passCount(w workloadSpec, seconds int, trace bool) int {
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(w.NominalPass)))
	if n < 1 {
		n = 1
	}
	if trace && n < 2 {
		n = 2
	}
	return n
}

// run measures one workload, checking cells against goldens at the
// default seed, and prints its metrics and result line.
func run(out io.Writer, o options, goldens Goldens) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.maxCells > 0 && o.maxCells < len(w.Cells) {
		w.Cells = w.Cells[:o.maxCells]
	}
	b, err := newBenchRun(w, o.seed, goldens)
	if err != nil {
		return err
	}
	n := passCount(w, o.seconds, o.trace)
	fmt.Fprintln(out, "#", fingerprint())
	fmt.Fprintf(out, "# workload %s: %d cells per pass, %d passes, runner parallelism %d, seed %d (goldens checked: %v)\n",
		w.Name, len(w.Cells), n, w.Parallelism, o.seed, b.goldens != nil)
	if o.trace {
		b.tracer = NewTracer()
	}
	var passes []passRun
	for i := 0; i < n; i++ {
		// Traced runs interleave untraced passes (even) and traced passes
		// (odd), so the tracing overhead is measured under the same host
		// conditions.
		p := b.pass(i, o.trace && i%2 == 1)
		passes = append(passes, p)
		failed := 0
		for _, c := range p.cells {
			if c.err != nil {
				failed++
				fmt.Fprintf(out, "# FAIL pass %d cell %s: %v\n", i, c.spec.Name, c.err)
			}
		}
		fmt.Fprintf(out, "# pass %d traced=%v wall=%.4fs failed=%d\n", i, p.traced, p.wall.Seconds(), failed)
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return err
	}
	s := summarize(w, passes, rss)
	defs := endToEnd()
	if o.trace {
		self := SelfTimes(b.tracer.spans)
		WriteSelfTable(out, self, n/2)
		if err := WriteSpans(o.spansOut, b.tracer.spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "# spans written to %s\n", o.spansOut)
		micro, err := runMicro(o.seed, o.benchtime)
		if err != nil {
			return err
		}
		for _, r := range micro {
			fmt.Fprintf(out, "# bench %-30s %14.2f ns/op %12.1f B/op %8.3f allocs/op (n=%d)\n",
				r.name, r.nsPerOp, r.bytesPerOp, r.allocsPerOp, r.n)
		}
		s.addMicro(micro)
		defs = perLayer()
	} else {
		s.notes = append(s.notes, fmt.Sprintf("failed_frac %.6f (%d of %d cells)", s.values["failed_frac"], s.failed, s.attempted))
	}
	return emit(out, defs, s)
}

// updateGoldens runs one traced pass of every workload at the default seed
// (metrics on, so directory and cache totals are recorded) and writes each
// cell's outcome to path.
func updateGoldens(path string) error {
	g := Goldens{}
	for _, w := range Workloads() {
		b, err := newBenchRun(w, DefaultSeed, nil)
		if err != nil {
			return err
		}
		p := b.pass(0, true)
		for _, c := range p.cells {
			if c.err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, c.spec.Name, c.err)
			}
			g[goldenKey(w.Name, c.spec)] = c.obs
		}
	}
	return writeGoldens(path, g)
}
