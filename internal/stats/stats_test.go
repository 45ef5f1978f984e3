package stats

import (
	"strings"
	"testing"

	"zsim/internal/memsys"
)

func twoProcResult() *Result {
	return &Result{
		App:      "toy",
		System:   memsys.KindRCInv,
		ExecTime: 1000,
		Procs: []Proc{
			{Compute: 700, ReadStall: 100, WriteStall: 50, BufferFlush: 50, SyncWait: 100},
			{Compute: 800, ReadStall: 100, WriteStall: 0, BufferFlush: 0, SyncWait: 100},
		},
	}
}

func TestTotals(t *testing.T) {
	r := twoProcResult()
	if r.TotalReadStall() != 200 || r.TotalWriteStall() != 50 || r.TotalBufferFlush() != 50 {
		t.Fatalf("totals wrong: %s", r)
	}
	if r.TotalSyncWait() != 200 || r.TotalCompute() != 1500 {
		t.Fatalf("sync/compute wrong: %s", r)
	}
}

func TestOverheadPct(t *testing.T) {
	r := twoProcResult()
	// (200+50+50) / (2*1000) = 15%
	if got := r.OverheadPct(); got != 15 {
		t.Fatalf("OverheadPct = %g, want 15", got)
	}
}

func TestOverheadPctZeroSafe(t *testing.T) {
	r := &Result{}
	if r.OverheadPct() != 0 {
		t.Fatal("empty result should have zero overhead")
	}
}

func TestProcAccessors(t *testing.T) {
	p := Proc{Compute: 10, ReadStall: 1, WriteStall: 2, BufferFlush: 3, SyncWait: 4}
	if p.Stalls() != 6 || p.Busy() != 20 {
		t.Fatalf("Stalls=%d Busy=%d", p.Stalls(), p.Busy())
	}
}

func TestPerProcOverhead(t *testing.T) {
	r := twoProcResult()
	read, write, flush := r.PerProcOverhead()
	if read != 100 || write != 25 || flush != 25 {
		t.Fatalf("per-proc overhead = %g/%g/%g", read, write, flush)
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title: "Figure X: toy",
		Results: []*Result{
			{App: "toy", System: memsys.KindZMachine, ExecTime: 500, Procs: []Proc{{Compute: 500}}},
			twoProcResult(),
		},
	}
	out := f.Render()
	for _, want := range []string{"Figure X: toy", "zmc", "rcinv", "15.00%", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The rcinv bar must be longer than the z-machine bar (2x exec time).
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected render shape:\n%s", out)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Title: "Table 1", Head: []string{"app", "writes", "pct"}}
	tb.Add("cholesky", "103915", "1.48")
	tb.Add("is", "6353", "3.78")
	out := tb.Render()
	for _, want := range []string{"Table 1", "app", "cholesky", "6353", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "app,writes,pct\n") {
		t.Errorf("csv header wrong:\n%s", csv)
	}
	tb2 := &Table{Head: []string{"a"}}
	tb2.Add(`x,"y`)
	if !strings.Contains(tb2.CSV(), `"x,""y"`) {
		t.Errorf("csv quoting wrong: %s", tb2.CSV())
	}
}

func TestResultString(t *testing.T) {
	if s := twoProcResult().String(); !strings.Contains(s, "toy/rcinv") {
		t.Fatalf("String = %q", s)
	}
}

func TestRenderBarProportions(t *testing.T) {
	// All stall: the bar should be mostly overhead glyphs.
	r := &Result{
		System:   memsys.KindRCUpd,
		ExecTime: 100,
		Procs:    []Proc{{ReadStall: 100}},
	}
	bar := renderBar(r, 100, 40)
	if strings.Count(bar, "r") < 35 {
		t.Fatalf("expected a read-stall-dominated bar, got %q", bar)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{Title: "T", Head: []string{"a", "b"}}
	tb.Add("x|y", "2")
	md := tb.Markdown()
	for _, want := range []string{"**T**", "| a | b |", "| --- | --- |", `x\|y`} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFigureMarkdown(t *testing.T) {
	f := &Figure{Title: "Fig", Results: []*Result{twoProcResult()}}
	md := f.Markdown()
	if !strings.Contains(md, "rcinv") || !strings.Contains(md, "15.00%") {
		t.Errorf("figure markdown wrong:\n%s", md)
	}
}

func TestUtilizationAndImbalance(t *testing.T) {
	r := &Result{
		ExecTime: 100,
		Procs: []Proc{
			{Compute: 100},
			{Compute: 50},
		},
	}
	if got := r.Utilization(); got != 0.75 {
		t.Fatalf("utilization = %g, want 0.75", got)
	}
	// max 100, mean 75 => 4/3.
	if got := r.Imbalance(); got < 1.333 || got > 1.334 {
		t.Fatalf("imbalance = %g, want 4/3", got)
	}
	empty := &Result{}
	if empty.Utilization() != 0 || empty.Imbalance() != 0 {
		t.Fatal("empty result should be zero-safe")
	}
}

func TestResultJSON(t *testing.T) {
	data, err := twoProcResult().JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"App": "toy"`, `"ExecTime": 1000`, `"ReadStall": 100`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json missing %s:\n%s", want, data)
		}
	}
}
