// Command paperbench regenerates the paper's evaluation: every figure and
// table, the ablation sweeps behind its architectural-implications
// discussion, and a machine-checked verdict on the paper's qualitative
// claims.
//
// The full regeneration simulates every distinct cell of the experiments
// and the claims once, in one worker pool, and prints its output only once
// every cell has run. -bench-json and -metrics apply to the full
// regeneration (and -bench-json to -exp); other modes reject them.
//
// Usage:
//
//	paperbench                      # everything at small scale
//	paperbench -scale paper         # the paper's problem sizes (slow)
//	paperbench -fig 2               # just Figure 2 (Cholesky)
//	paperbench -table 1             # just Table 1
//	paperbench -list                # the experiment index (E1..E20)
//	paperbench -exp E15             # one experiment
//	paperbench -claims              # machine-check the paper's claims
//	paperbench -svg DIR             # also write figures as SVG
//	paperbench -csv | -md           # CSV or markdown tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zsim"
	"zsim/internal/benchrec"
	"zsim/internal/prof"
	"zsim/internal/workload"
)

// options is the parsed command line.
type options struct {
	scale, expID, scaling, svgDir, benchOut, cpuProf, memProf string
	procs, fig, table, parallel                               int
	csv, md, list, claims, matrix, conf, metrics              bool
	// mode is the output mode the flags select, named by its flag; ""
	// is the full regeneration.
	mode string
}

// parseFlags parses args and rejects a flag the selected mode would
// silently ignore. It reports every error it returns but flag.ErrHelp.
func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.StringVar(&o.scale, "scale", "small", "problem scale: small | paper")
	fs.IntVar(&o.procs, "procs", 16, "number of processors")
	fs.IntVar(&o.fig, "fig", 0, "regenerate only this figure (2-5)")
	fs.IntVar(&o.table, "table", 0, "regenerate only this table (1)")
	fs.BoolVar(&o.csv, "csv", false, "emit tables as CSV")
	fs.BoolVar(&o.md, "md", false, "emit tables as markdown")
	fs.StringVar(&o.svgDir, "svg", "", "also write each figure as an SVG into this directory")
	fs.StringVar(&o.expID, "exp", "", "run a single experiment by ID (E1..E20, S1..S4)")
	fs.StringVar(&o.scaling, "scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
	fs.BoolVar(&o.list, "list", false, "list the experiment index and exit")
	fs.BoolVar(&o.claims, "claims", false, "machine-check the paper's claims and print the verdicts")
	fs.BoolVar(&o.matrix, "matrix", false, "print the overhead%% matrix: every app on every system")
	fs.BoolVar(&o.conf, "conformance", false, "run every app on every system with the conformance checker")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "max simulations run concurrently (1 = serial; output is identical at any setting)")
	fs.StringVar(&o.benchOut, "bench-json", "", "with the full regeneration or -exp: write a machine-readable timing/throughput record (BENCH_*.json) to this path")
	fs.BoolVar(&o.metrics, "metrics", false, "with the full regeneration: collect and print the global metrics snapshot (implied by -bench-json)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile (post-GC snapshot) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case o.conf:
		o.mode = "-conformance"
	case o.matrix:
		o.mode = "-matrix"
	case o.claims:
		o.mode = "-claims"
	case o.list:
		o.mode = "-list"
	case o.expID != "":
		o.mode = "-exp"
	case o.fig != 0:
		o.mode = "-fig"
	case o.table != 0:
		o.mode = "-table"
	}
	var err error
	switch {
	case o.table != 0 && o.table != 1:
		err = fmt.Errorf("no table %d in the paper (want 1)", o.table)
	case o.benchOut != "" && o.mode != "" && o.mode != "-exp":
		err = fmt.Errorf("-bench-json writes a record only for the full regeneration or -exp, not %s", o.mode)
	case o.metrics && o.mode != "" && (o.mode != "-exp" || o.benchOut == ""):
		err = fmt.Errorf("-metrics prints only with the full regeneration (or goes into -exp's -bench-json record), not %s", o.mode)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), "paperbench:", err)
	}
	return &o, err
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(2)
	}

	scalingProcs, err := parseProcsList(o.scaling)
	check(err)

	stopProf, err := prof.Start(o.cpuProf, o.memProf)
	check(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: profile:", err)
		}
	}()

	if o.metrics || o.benchOut != "" {
		zsim.EnableMetrics(true)
		zsim.ResetGlobalMetrics()
	}

	zsim.SetParallelism(o.parallel)
	sc := zsim.Scale(o.scale)
	params := zsim.DefaultParams(o.procs)
	pr := printer{w: os.Stdout, csv: o.csv, md: o.md, svgDir: o.svgDir}
	rec := benchrec.Record{Scale: o.scale, Procs: o.procs, Parallel: o.parallel,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	switch o.mode {
	case "-conformance":
		t, pass, err := zsim.ConformanceSweep(sc, params)
		check(err)
		pr.table(t)
		if !pass {
			os.Exit(1)
		}
	case "-matrix":
		t, err := zsim.SummaryMatrix(sc, params)
		check(err)
		pr.table(t)
	case "-claims":
		t, ok, err := zsim.EvaluateClaims(sc, params)
		check(err)
		pr.table(t)
		if !ok {
			os.Exit(1)
		}
	case "-list":
		for _, e := range zsim.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range zsim.ScalingExperiments(scalingProcs) {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case "-exp":
		e, err := zsim.FindExperimentScaled(o.expID, scalingProcs)
		check(err)
		start := time.Now()
		art, err := e.Run(sc, params)
		check(err)
		rec.TotalWallMS = msSince(start)
		check(pr.artifact(e.ID, art))
		if o.benchOut != "" {
			rec.Experiments = []benchrec.Entry{{ID: e.ID, Title: e.Title}}
			if c, ok := art.(interface{ CurveData() benchrec.Curve }); ok {
				rec.Curves = append(rec.Curves, c.CurveData())
			}
			snap := zsim.GlobalMetrics()
			rec.Metrics = &snap
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(o.benchOut))
			fmt.Printf("wrote %s (%s, %.0f ms)\n", o.benchOut, e.ID, rec.TotalWallMS)
		}
	case "-fig":
		f, err := zsim.PaperFigure(o.fig, sc, params)
		check(err)
		check(pr.artifact(fmt.Sprintf("figure%d", o.fig), f))
	case "-table":
		t, _, err := zsim.PaperTable1(sc, params)
		check(err)
		pr.table(t)
	default:
		ok, err := regenerate(pr, sc, params, &rec)
		check(err)
		if zsim.MetricsEnabled() {
			snap := zsim.GlobalMetrics()
			rec.Metrics = &snap
			fmt.Println("--- metrics ---")
			fmt.Print(snap.String())
		}
		if o.benchOut != "" {
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(o.benchOut))
			fmt.Printf("wrote %s (%d experiments, %.0f ms total, %.2f experiments/s at -parallel %d)\n",
				o.benchOut, len(rec.Experiments), rec.TotalWallMS, rec.ExperimentsPerSec, o.parallel)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// regenerate is the complete regeneration: every indexed experiment, then
// the machine-checked claim verdicts, resolved by workload.Regenerate so
// each distinct cell is simulated once. Nothing is printed until every
// cell has run. The record gets the experiment index and the total wall
// time; the returned flag is the claims' overall verdict.
func regenerate(pr printer, sc zsim.Scale, params zsim.Params, rec *benchrec.Record) (bool, error) {
	start := time.Now()
	arts, claims, ok, err := workload.Regenerate(sc, params)
	if err != nil {
		return false, err
	}
	for i, e := range zsim.Experiments() {
		fmt.Fprintf(pr.w, "--- %s: %s ---\n", e.ID, e.Title)
		if err := pr.artifact(e.ID, arts[i]); err != nil {
			return false, err
		}
		rec.Experiments = append(rec.Experiments, benchrec.Entry{ID: e.ID, Title: e.Title})
	}
	pr.table(claims)
	rec.TotalWallMS = msSince(start)
	if rec.TotalWallMS > 0 {
		rec.ExperimentsPerSec = float64(len(rec.Experiments)) / (rec.TotalWallMS / 1000)
	}
	return ok, nil
}

// printer writes tables and artifacts in the format the flags select.
type printer struct {
	w       io.Writer
	csv, md bool
	svgDir  string // if set, figures are also written here as SVG
}

func (pr printer) table(t *zsim.Table) {
	switch {
	case pr.csv:
		fmt.Fprint(pr.w, t.CSV())
	case pr.md:
		fmt.Fprint(pr.w, t.Markdown())
	default:
		fmt.Fprint(pr.w, t.Render())
	}
	fmt.Fprintln(pr.w)
}

func (pr printer) artifact(id string, art workload.Artifact) error {
	if pr.md {
		fmt.Fprint(pr.w, art.Markdown())
	} else {
		fmt.Fprint(pr.w, art.Render())
	}
	fmt.Fprintln(pr.w)
	if f, ok := art.(*zsim.Figure); ok && pr.svgDir != "" {
		path := filepath.Join(pr.svgDir, fmt.Sprintf("%s.svg", id))
		if err := os.WriteFile(path, []byte(f.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(pr.w, "wrote %s\n\n", path)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// parseProcsList parses a comma-separated machine-size list ("64,256"); an
// empty string selects the workload package's defaults (nil).
func parseProcsList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scaling-procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
