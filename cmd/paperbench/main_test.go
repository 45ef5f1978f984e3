package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"zsim"
	"zsim/internal/benchrec"
)

// TestDefaultRegenerationGolden pins the default small-scale regeneration
// (`paperbench` with no flags) byte for byte, serial and pooled. The golden
// holds no timings, so any difference is a change in simulated output.
func TestDefaultRegenerationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration")
	}
	want, err := os.ReadFile("testdata/regen_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		prev := zsim.SetParallelism(par)
		var out bytes.Buffer
		var rec benchrec.Record
		ok, err := regenerate(printer{w: &out}, zsim.ScaleSmall, zsim.DefaultParams(16), &rec)
		zsim.SetParallelism(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("parallel %d: a claim failed", par)
		}
		if got := out.String(); got != string(want) {
			t.Fatalf("parallel %d: output differs from the golden at line %d", par, firstDiffLine(got, string(want)))
		}
		if len(rec.Experiments) != len(zsim.Experiments()) {
			t.Errorf("parallel %d: record has %d experiments, want %d", par, len(rec.Experiments), len(zsim.Experiments()))
		}
	}
}

// TestParseFlags: a flag the selected mode would silently ignore is an
// error, and every flag a mode uses is accepted.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args []string
		mode string // "" is the full regeneration
		err  bool
	}{
		{args: nil},
		{args: []string{"-bench-json", "b.json"}},
		{args: []string{"-metrics", "-parallel", "1"}},
		{args: []string{"-table", "1"}, mode: "-table"},
		{args: []string{"-table", "2"}, err: true},
		{args: []string{"-table", "-1"}, err: true},
		{args: []string{"-fig", "2", "-table", "3"}, err: true},
		{args: []string{"-fig", "2", "-svg", "out"}, mode: "-fig"},
		{args: []string{"-exp", "S3", "-bench-json", "b.json"}, mode: "-exp"},
		{args: []string{"-exp", "S3", "-bench-json", "b.json", "-metrics"}, mode: "-exp"},
		{args: []string{"-exp", "E5", "-metrics"}, err: true},
		{args: []string{"-table", "1", "-bench-json", "b.json"}, err: true},
		{args: []string{"-fig", "2", "-bench-json", "b.json"}, err: true},
		{args: []string{"-claims", "-bench-json", "b.json"}, err: true},
		{args: []string{"-matrix", "-bench-json", "b.json"}, err: true},
		{args: []string{"-conformance", "-bench-json", "b.json"}, err: true},
		{args: []string{"-list", "-bench-json", "b.json"}, err: true},
		{args: []string{"-fig", "2", "-metrics"}, err: true},
		{args: []string{"-table", "1", "-metrics"}, err: true},
		{args: []string{"-claims", "-metrics"}, err: true},
		{args: []string{"-matrix", "-metrics"}, err: true},
		{args: []string{"-conformance", "-metrics"}, err: true},
		{args: []string{"-list", "-metrics"}, err: true},
		{args: []string{"-claims", "-md"}, mode: "-claims"},
		{args: []string{"-bogus"}, err: true},
	}
	for _, c := range cases {
		o, err := parseFlags(c.args)
		if (err != nil) != c.err {
			t.Errorf("parseFlags(%q) err = %v, want err=%v", c.args, err, c.err)
			continue
		}
		if err == nil && o.mode != c.mode {
			t.Errorf("parseFlags(%q) mode = %q, want %q", c.args, o.mode, c.mode)
		}
	}
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
