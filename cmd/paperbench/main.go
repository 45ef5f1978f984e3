// Command paperbench regenerates the paper's evaluation: every figure and
// table, the ablation sweeps behind its architectural-implications
// discussion, and a machine-checked verdict on the paper's qualitative
// claims.
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

func main() {
	var (
		scale    = flag.String("scale", "small", "problem scale: small | paper")
		procs    = flag.Int("procs", 16, "number of processors")
		fig      = flag.Int("fig", 0, "regenerate only this figure (2-5)")
		table    = flag.Int("table", 0, "regenerate only this table (1)")
		csv      = flag.Bool("csv", false, "emit tables as CSV")
		md       = flag.Bool("md", false, "emit tables as markdown")
		svgDir   = flag.String("svg", "", "also write each figure as an SVG into this directory")
		expID    = flag.String("exp", "", "run a single experiment by ID (E1..E20, S1..S4)")
		scaling  = flag.String("scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
		list     = flag.Bool("list", false, "list the experiment index and exit")
		claims   = flag.Bool("claims", false, "machine-check the paper's claims and print the verdicts")
		matrix   = flag.Bool("matrix", false, "print the overhead%% matrix: every app on every system")
		conf     = flag.Bool("conformance", false, "run every app on every system with the conformance checker")
		parallel = flag.Int("parallel", runtime.NumCPU(), "max simulations run concurrently (1 = serial; output is identical at any setting)")
		benchOut = flag.String("bench-json", "", "with the full regeneration: write a machine-readable timing/throughput record (BENCH_*.json) to this path")
		withMet  = flag.Bool("metrics", false, "collect and print the global metrics snapshot (implied by -bench-json)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-GC snapshot) to this file on exit")
	)
	flag.Parse()

	scalingProcs, err := parseProcsList(*scaling)
	check(err)

	stopProf, err := prof.Start(*cpuProf, *memProf)
	check(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: profile:", err)
		}
	}()

	if *withMet || *benchOut != "" {
		zsim.EnableMetrics(true)
		zsim.ResetGlobalMetrics()
	}

	zsim.SetParallelism(*parallel)
	sc := zsim.Scale(*scale)
	params := zsim.DefaultParams(*procs)
	pr := printer{w: os.Stdout, csv: *csv, md: *md, svgDir: *svgDir}
	newRecord := func() benchrec.Record {
		return benchrec.Record{Scale: *scale, Procs: *procs, Parallel: *parallel,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	}
	switch {
	case *conf:
		t, pass, err := zsim.ConformanceSweep(sc, params)
		check(err)
		pr.table(t)
		if !pass {
			os.Exit(1)
		}
	case *matrix:
		t, err := zsim.SummaryMatrix(sc, params)
		check(err)
		pr.table(t)
	case *claims:
		t, ok, err := zsim.EvaluateClaims(sc, params)
		check(err)
		pr.table(t)
		if !ok {
			os.Exit(1)
		}
	case *list:
		for _, e := range zsim.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range zsim.ScalingExperiments(scalingProcs) {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *expID != "":
		e, err := zsim.FindExperimentScaled(*expID, scalingProcs)
		check(err)
		expStart := time.Now()
		art, err := e.Run(sc, params)
		check(err)
		check(pr.artifact(e.ID, art))
		if *benchOut != "" {
			rec := newRecord()
			rec.Experiments = []benchrec.Entry{{ID: e.ID, Title: e.Title, WallMS: msSince(expStart)}}
			rec.TotalWallMS = rec.Experiments[0].WallMS
			if c, ok := art.(interface{ CurveData() benchrec.Curve }); ok {
				rec.Curves = append(rec.Curves, c.CurveData())
			}
			if zsim.MetricsEnabled() {
				snap := zsim.GlobalMetrics()
				rec.Metrics = &snap
			}
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(*benchOut))
			fmt.Printf("wrote %s (%s, %.0f ms)\n", *benchOut, e.ID, rec.TotalWallMS)
		}
	case *fig != 0:
		f, err := zsim.PaperFigure(*fig, sc, params)
		check(err)
		check(pr.artifact(fmt.Sprintf("figure%d", *fig), f))
	case *table == 1:
		t, _, err := zsim.PaperTable1(sc, params)
		check(err)
		pr.table(t)
	default:
		rec := newRecord()
		ok, err := regenerate(pr, sc, params, &rec)
		check(err)
		if zsim.MetricsEnabled() {
			snap := zsim.GlobalMetrics()
			rec.Metrics = &snap
			fmt.Println("--- metrics ---")
			fmt.Print(snap.String())
		}
		if *benchOut != "" {
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(*benchOut))
			fmt.Printf("wrote %s (%d experiments, %.0f ms total, %.2f experiments/s at -parallel %d)\n",
				*benchOut, len(rec.Experiments), rec.TotalWallMS, rec.ExperimentsPerSec, *parallel)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// regenerate is the complete regeneration: every indexed experiment, then
// the machine-checked claim verdicts, all on one shared cell store so each
// distinct cell is simulated once. Each phase is timed into rec for the
// -bench-json perf record: an experiment's wall time covers only the cells
// it was the first to declare. The returned flag is the claims' overall
// verdict.
func regenerate(pr printer, sc zsim.Scale, params zsim.Params, rec *benchrec.Record) (bool, error) {
	start := time.Now()
	g := workload.NewRegeneration(sc, params)
	for _, e := range zsim.Experiments() {
		fmt.Fprintf(pr.w, "--- %s: %s ---\n", e.ID, e.Title)
		expStart := time.Now()
		art, err := g.Run(e)
		if err != nil {
			return false, err
		}
		rec.Experiments = append(rec.Experiments, benchrec.Entry{
			ID: e.ID, Title: e.Title, WallMS: msSince(expStart),
		})
		if err := pr.artifact(e.ID, art); err != nil {
			return false, err
		}
	}
	claimsStart := time.Now()
	t, ok, err := g.Claims()
	if err != nil {
		return false, err
	}
	pr.table(t)
	rec.ClaimsWallMS = msSince(claimsStart)
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
