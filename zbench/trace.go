package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Each phase span is a child of its cell's span; the runner
// wait span (submission to start of the cell) is a child of the pass.
const (
	spanPass    = "zbench.pass"
	spanCell    = "zbench.cell"
	spanNewApp  = "workload.new_app"
	spanMachine = "machine.new"
	spanSetup   = "apps.setup"
	spanRun     = "machine.run"
	spanVerify  = "apps.verify"
	spanGolden  = "golden.check"
	spanWait    = "runner.wait"
)

// Span is one timed interval of the benchmark's own code. Spans of one
// cell share its Cell id; Parent is the id of the enclosing span (0 for a
// pass).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Cell   int    `json:"cell"` // -1 for the pass span
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how untraced passes run. Spans are recorded from the
// pass's own goroutine after runner.Grid returns, so no locking is needed.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its id (0 on a nil tracer).
func (t *Tracer) Add(parent, pass, cell int, name, label string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Pass: pass, Cell: cell, Name: name, Label: label,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// SelfTimes returns each span name's total self time in seconds: a span's
// duration minus the part of its interval its children cover (children of
// one parent may overlap when cells run in parallel).
func SelfTimes(spans []Span) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// WriteSelfTable prints the per-layer self-time table.
func WriteSelfTable(w io.Writer, self map[string]float64, passes int) {
	names := make([]string, 0, len(self))
	var total float64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# self time per layer over %d traced passes\n", passes)
	fmt.Fprintf(w, "#   %-18s %12s %12s %7s\n", "layer", "total_s", "per_pass_s", "share")
	for _, n := range names {
		fmt.Fprintf(w, "#   %-18s %12.6f %12.6f %6.2f%%\n", n, self[n], self[n]/float64(passes), 100*self[n]/total)
	}
}

// WriteSpans writes the spans as JSON to path, creating its directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
