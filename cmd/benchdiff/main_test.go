package main

import "testing"

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want cliArgs
		err  bool
	}{
		{
			name: "flags after positionals (documented invocation)",
			argv: []string{"BENCH_baseline.json", "BENCH_ci.json", "-tolerance", "25%"},
			want: cliArgs{oldPath: "BENCH_baseline.json", newPath: "BENCH_ci.json", tolerance: 0.25, metricTolerance: -1, minMS: 10},
		},
		{
			name: "flags before positionals",
			argv: []string{"-tolerance", "0.10", "-min-ms", "5", "a.json", "b.json"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.10, metricTolerance: -1, minMS: 5},
		},
		{
			name: "metric tolerance separate",
			argv: []string{"a.json", "b.json", "-metric-tolerance", "50%"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0.5, minMS: 10},
		},
		{
			name: "defaults",
			argv: []string{"a.json", "b.json"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: -1, minMS: 10},
		},
		{
			name: "metrics-only identity gate",
			argv: []string{"a.json", "b.json", "-metrics-only", "-metric-tolerance", "0%"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0, minMS: 10, metricsOnly: true},
		},
		// -scope is not a benchdiff flag; an invocation that still passes it fails.
		{name: "scope with two files", argv: []string{"-scope", "a.json", "b.json"}, err: true},
		{name: "one file", argv: []string{"a.json"}, err: true},
		{name: "three files", argv: []string{"a", "b", "c"}, err: true},
		{name: "unknown flag", argv: []string{"a.json", "b.json", "-bogus"}, err: true},
		{name: "missing value", argv: []string{"a.json", "b.json", "-tolerance"}, err: true},
		{name: "bad tolerance", argv: []string{"a.json", "b.json", "-tolerance", "wide"}, err: true},
		{name: "help", argv: []string{"-h"}, err: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseArgs(c.argv)
			if (err != nil) != c.err {
				t.Fatalf("parseArgs(%v) err = %v, want err=%v", c.argv, err, c.err)
			}
			if err != nil {
				return
			}
			if *got != c.want {
				t.Fatalf("parseArgs(%v) = %+v, want %+v", c.argv, *got, c.want)
			}
		})
	}
}
