// Command benchdiff compares two BENCH_*.json records (written by
// paperbench -bench-json) and exits nonzero when the new record regresses
// past tolerance: total wall time, throughput, or any watched simulated metric (scheduler switches, misses, traffic, stall
// cycles). CI's bench-gate job runs it against the blessed baseline.
//
// Usage:
//
//	benchdiff OLD.json NEW.json [-tolerance 25%] [-metric-tolerance 10%] [-metrics-only]
//
// Flags may appear before or after the two file arguments.
package main

import (
	"fmt"
	"os"

	"zsim/internal/benchrec"
)

const usage = `usage: benchdiff OLD.json NEW.json [flags]

Compares two BENCH_*.json records and exits 1 on regression.

  -tolerance T         allowed slowdown for timings/throughput (default 25%)
  -metric-tolerance T  allowed drift for watched simulated metrics (default: -tolerance)
  -metrics-only        compare only the watched simulated metrics; timings and
                       throughput are informational, and metric drift in either
                       direction past -metric-tolerance fails (the identity gate
                       for runs that legitimately differ in wall time, e.g.
                       records from two hosts)

T accepts "25%" or a fraction like "0.25".
`

// cliArgs is the parsed command line. The standard flag package stops at
// the first positional argument, but the documented invocation puts the two
// files first, so arguments are scanned by hand.
type cliArgs struct {
	oldPath, newPath string
	tolerance        float64
	metricTolerance  float64
	metricsOnly      bool
}

func parseArgs(argv []string) (*cliArgs, error) {
	a := &cliArgs{tolerance: 0.25, metricTolerance: -1}
	var files []string
	for i := 0; i < len(argv); i++ {
		arg := argv[i]
		flagVal := func() (string, error) {
			if i+1 >= len(argv) {
				return "", fmt.Errorf("flag %s needs a value", arg)
			}
			i++
			return argv[i], nil
		}
		switch arg {
		case "-tolerance", "--tolerance":
			v, err := flagVal()
			if err != nil {
				return nil, err
			}
			t, err := benchrec.ParseTolerance(v)
			if err != nil {
				return nil, err
			}
			a.tolerance = t
		case "-metric-tolerance", "--metric-tolerance":
			v, err := flagVal()
			if err != nil {
				return nil, err
			}
			t, err := benchrec.ParseTolerance(v)
			if err != nil {
				return nil, err
			}
			a.metricTolerance = t
		case "-metrics-only", "--metrics-only":
			a.metricsOnly = true
		case "-h", "--help", "-help":
			return nil, errHelp
		default:
			if len(arg) > 1 && arg[0] == '-' {
				return nil, fmt.Errorf("unknown flag %s", arg)
			}
			files = append(files, arg)
		}
	}
	if len(files) != 2 {
		return nil, fmt.Errorf("need exactly two record files, got %d", len(files))
	}
	a.oldPath, a.newPath = files[0], files[1]
	return a, nil
}

var errHelp = fmt.Errorf("help requested")

func main() {
	a, err := parseArgs(os.Args[1:])
	if err != nil {
		if err == errHelp {
			fmt.Print(usage)
			return
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n%s", err, usage)
		os.Exit(2)
	}

	old, err := benchrec.Load(a.oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := benchrec.Load(a.newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	opts := benchrec.Options{
		Tolerance:   a.tolerance,
		MetricsOnly: a.metricsOnly,
	}
	if a.metricTolerance >= 0 {
		opts.MetricTolerance = a.metricTolerance
	}
	deltas, regressed := benchrec.Diff(old, cur, opts)

	fmt.Printf("benchdiff %s -> %s (tolerance %.0f%%)\n\n",
		a.oldPath, a.newPath, a.tolerance*100)
	fmt.Print(benchrec.Format(deltas, opts))
	if regressed {
		fmt.Println("\nREGRESSION: at least one quantity crossed tolerance (marked '!').")
		os.Exit(1)
	}
	fmt.Println("\nOK: no regression past tolerance.")
}
