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
