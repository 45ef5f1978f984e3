// Package stats implements the paper's overhead accounting (§2.1): per
// processor it accumulates compute time and the three overhead classes —
// read stall, write stall, and buffer flush — plus the inherent
// synchronization wait, and renders the decomposition as the tables and
// stacked-bar figures of the evaluation section.
package stats

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"zsim/internal/memsys"
)

// Time aliases virtual time.
type Time = memsys.Time

// Proc is one processor's time decomposition.
type Proc struct {
	Compute     Time // cycles charged by the application's cost model
	ReadStall   Time // wait on read misses (incl. inherent cost on the z-machine)
	WriteStall  Time // wait on write misses (store buffer full)
	BufferFlush Time // wait at release points draining buffers
	SyncWait    Time // process-coordination wait (inherent, not an overhead)
	CoreWait    Time // wait for the node's core (multithreading extension; 0 with one thread per node)
}

// Stalls returns the processor's total overhead-class cycles.
func (p Proc) Stalls() Time { return p.ReadStall + p.WriteStall + p.BufferFlush }

// Busy returns all accounted cycles.
func (p Proc) Busy() Time { return p.Compute + p.Stalls() + p.SyncWait + p.CoreWait }

// Result is one (application, memory system) execution.
type Result struct {
	App      string
	System   memsys.Kind
	ExecTime Time
	Procs    []Proc
	Counters memsys.Counters
}

// Clone returns a deep copy of r: mutating the copy never changes r.
func (r *Result) Clone() *Result {
	c := *r
	c.Procs = slices.Clone(r.Procs)
	c.Counters.PerProcReads = slices.Clone(r.Counters.PerProcReads)
	c.Counters.PerProcWrites = slices.Clone(r.Counters.PerProcWrites)
	return &c
}

// TotalReadStall sums read stall over processors.
func (r *Result) TotalReadStall() Time { return r.sum(func(p Proc) Time { return p.ReadStall }) }

// TotalWriteStall sums write stall over processors.
func (r *Result) TotalWriteStall() Time { return r.sum(func(p Proc) Time { return p.WriteStall }) }

// TotalBufferFlush sums buffer flush over processors.
func (r *Result) TotalBufferFlush() Time { return r.sum(func(p Proc) Time { return p.BufferFlush }) }

// TotalSyncWait sums synchronization wait over processors.
func (r *Result) TotalSyncWait() Time { return r.sum(func(p Proc) Time { return p.SyncWait }) }

// TotalCompute sums compute cycles over processors.
func (r *Result) TotalCompute() Time { return r.sum(func(p Proc) Time { return p.Compute }) }

// TotalCoreWait sums core-contention wait over processors (multithreading
// extension).
func (r *Result) TotalCoreWait() Time { return r.sum(func(p Proc) Time { return p.CoreWait }) }

func (r *Result) sum(f func(Proc) Time) Time {
	var t Time
	for _, p := range r.Procs {
		t += f(p)
	}
	return t
}

// OverheadPct is the figure-top percentage of Figures 2–5: the fraction of
// the overall execution time (aggregated over processors) that the three
// overhead components represent.
func (r *Result) OverheadPct() float64 {
	if r.ExecTime == 0 || len(r.Procs) == 0 {
		return 0
	}
	total := float64(r.ExecTime) * float64(len(r.Procs))
	stalls := float64(r.TotalReadStall() + r.TotalWriteStall() + r.TotalBufferFlush())
	return 100 * stalls / total
}

// PerProcOverhead returns the mean per-processor overhead cycles, the
// quantity plotted as the stacked portion of a figure bar.
func (r *Result) PerProcOverhead() (read, write, flush float64) {
	n := float64(len(r.Procs))
	if n == 0 {
		return
	}
	return float64(r.TotalReadStall()) / n, float64(r.TotalWriteStall()) / n, float64(r.TotalBufferFlush()) / n
}

func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: exec=%d overhead=%.2f%% (read=%d write=%d flush=%d sync=%d)",
		r.App, r.System, r.ExecTime, r.OverheadPct(),
		r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(), r.TotalSyncWait())
}

// Figure is one of the paper's per-application stacked-bar charts: the same
// application run on several memory systems.
type Figure struct {
	Title   string
	Results []*Result
}

// Render draws the figure as text: one stacked bar per memory system with
// the overhead percentage on top, mirroring Figures 2–5.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %9s  %s\n",
		"system", "exec-cycles", "read-stall", "write-stall", "buf-flush", "overhead", "bar (per-proc mean, r=read w=write f=flush)")
	var maxExec Time
	for _, r := range f.Results {
		if r.ExecTime > maxExec {
			maxExec = r.ExecTime
		}
	}
	for _, r := range f.Results {
		read, write, flush := r.PerProcOverhead()
		bar := renderBar(r, maxExec, 46)
		fmt.Fprintf(&b, "%-8s %12d %12.0f %12.0f %12.0f %8.2f%%  %s\n",
			r.System, r.ExecTime, read, write, flush, r.OverheadPct(), bar)
	}
	return b.String()
}

// renderBar draws an execution-time bar of width proportional to ExecTime,
// partitioned into compute/sync ('.') and the three overheads.
func renderBar(r *Result, maxExec Time, width int) string {
	if maxExec == 0 {
		return ""
	}
	n := len(r.Procs)
	if n == 0 {
		return ""
	}
	total := float64(r.ExecTime)
	cells := int(float64(width) * total / float64(maxExec))
	if cells < 1 {
		cells = 1
	}
	read, write, flush := r.PerProcOverhead()
	rc := int(read / total * float64(cells))
	wc := int(write / total * float64(cells))
	fc := int(flush / total * float64(cells))
	base := cells - rc - wc - fc
	if base < 0 {
		base = 0
	}
	return strings.Repeat(".", base) + strings.Repeat("r", rc) + strings.Repeat("w", wc) + strings.Repeat("f", fc)
}

// Table renders aligned rows. Rows may have differing widths; columns are
// sized to the widest cell.
type Table struct {
	Title string
	Head  []string
	Rows  [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render draws the table as text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Head))
	grow := func(row []string) {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.Head)
	for _, r := range t.Rows {
		grow(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Head)
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Head)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table (for
// dropping regenerated results into EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	row := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	row(t.Head)
	sep := make([]string, len(t.Head))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Markdown renders the figure as a markdown table of the per-system
// decomposition.
func (f *Figure) Markdown() string {
	t := &Table{
		Title: f.Title,
		Head:  []string{"system", "exec-cycles", "read-stall", "write-stall", "buf-flush", "overhead"},
	}
	for _, r := range f.Results {
		read, write, flush := r.PerProcOverhead()
		t.Add(string(r.System),
			fmt.Sprintf("%d", r.ExecTime),
			fmt.Sprintf("%.0f", read),
			fmt.Sprintf("%.0f", write),
			fmt.Sprintf("%.0f", flush),
			fmt.Sprintf("%.2f%%", r.OverheadPct()))
	}
	return t.Markdown()
}

// Utilization returns the fraction of the aggregate execution time spent
// computing — the complement of all waiting.
func (r *Result) Utilization() float64 {
	if r.ExecTime == 0 || len(r.Procs) == 0 {
		return 0
	}
	return float64(r.TotalCompute()) / (float64(r.ExecTime) * float64(len(r.Procs)))
}

// Imbalance returns max/mean compute across processors (1.0 = perfectly
// balanced). Load imbalance shifts inherent communication cost (paper
// §2.1: the inherent cost "is dependent on task scheduling and load
// imbalance").
func (r *Result) Imbalance() float64 {
	if len(r.Procs) == 0 {
		return 0
	}
	var max, sum Time
	for _, p := range r.Procs {
		if p.Compute > max {
			max = p.Compute
		}
		sum += p.Compute
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.Procs))
	return float64(max) / mean
}

// JSON encodes the result for external analysis tooling.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
