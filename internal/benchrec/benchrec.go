// Package benchrec defines the machine-readable BENCH_*.json record that
// cmd/paperbench emits with -bench-json, and the comparison logic behind
// cmd/benchdiff: given two records, classify every timing, throughput, and
// watched-metric delta against a tolerance and report regressions. The
// records form the repository's perf trajectory; CI's bench-gate job fails
// a build whose record regresses past tolerance against the blessed
// BENCH_baseline.json.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"zsim/internal/metrics"
)

// Record is one full-regeneration timing/throughput record plus the
// simulator's own metrics section.
type Record struct {
	Timestamp         string            `json:"timestamp"`
	Scale             string            `json:"scale"`
	Procs             int               `json:"procs"`
	Parallel          int               `json:"parallel"`
	GOMAXPROCS        int               `json:"gomaxprocs"`
	NumCPU            int               `json:"num_cpu"`
	Experiments       []Entry           `json:"experiments"`
	TotalWallMS       float64           `json:"total_wall_ms"`
	ExperimentsPerSec float64           `json:"experiments_per_sec"`
	Metrics           *metrics.Snapshot `json:"metrics,omitempty"`
	// Curves holds per-P scalability curves (the S-family experiments):
	// simulated quantities, so the gate compares them like watched metrics,
	// not like wall-clock timings.
	Curves []Curve `json:"curves,omitempty"`
}

// Entry names one experiment the record's run regenerated.
type Entry struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Curve is one scalability experiment's simulated overhead-class curve:
// one point per machine size. Every quantity is virtual (cycles), so two
// records of the same simulation must agree exactly.
type Curve struct {
	ID     string       `json:"id"` // experiment ID (S1..)
	App    string       `json:"app"`
	System string       `json:"system"`
	Points []CurvePoint `json:"points"`
}

// CurvePoint is one machine size's overhead decomposition.
type CurvePoint struct {
	Procs       int     `json:"procs"`
	ExecCycles  float64 `json:"exec_cycles"`
	ReadStall   float64 `json:"read_stall"`
	WriteStall  float64 `json:"write_stall"`
	BufferFlush float64 `json:"buffer_flush"`
	SyncWait    float64 `json:"sync_wait"`
	OverheadPct float64 `json:"overhead_pct"`
}

// Load reads a record from path.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchrec: %s: %w", path, err)
	}
	return &r, nil
}

// Write marshals the record to path with a trailing newline.
func (r *Record) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParseTolerance accepts "25%", "25 %", or a bare fraction like "0.25" and
// returns the fraction.
func ParseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSpace(strings.TrimSuffix(s, "%"))
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("benchrec: bad tolerance %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("benchrec: negative tolerance %q", s)
	}
	return v, nil
}

// watchedMetric is one simulated counter the gate tracks. worse = +1 means
// an increase past tolerance is a regression (more scheduler round-trips,
// more misses); worse = -1 means a decrease is (fast-path hits). Host-side
// metrics (runner.*) are deliberately absent: they vary with the machine
// and the -parallel setting.
type watchedMetric struct {
	name  string
	worse int
}

var watchedMetrics = []watchedMetric{
	{"sim.yields", +1},                 // total scheduling points (switches + fast-path hits)
	{"sim.switches", +1},               // fast-path degradation: more channel handoffs
	{"sim.fastpath_hits", -1},          // fast-path degradation: fewer inline returns
	{"proto.read_misses", +1},          // coherence efficiency
	{"proto.write_misses", +1},         //
	{"proto.invalidations", +1},        //
	{"mesh.msgs", +1},                  // traffic volume
	{"mesh.bytes", +1},                 //
	{"mesh.queue_cycles", +1},          // interconnect contention
	{"wbuffer.full_stall_cycles", +1},  // write-stall pressure
	{"wbuffer.flush_stall_cycles", +1}, // buffer-flush pressure
}

// Delta is one compared quantity.
type Delta struct {
	Name       string  // what was compared ("total_wall_ms", "metric sim.switches", ...)
	Old, New   float64 //
	Pct        float64 // (new-old)/old * 100; 0 when old == 0
	Regression bool    // past tolerance in the bad direction
	Note       string  // "no baseline", "only in new", ...
}

// Options configures a comparison.
type Options struct {
	// Tolerance is the allowed fractional slowdown for timings and
	// throughput (0.25 = 25%).
	Tolerance float64
	// MetricTolerance is the allowed fractional drift for watched
	// simulated metrics; 0 selects Tolerance.
	MetricTolerance float64
	// MetricsOnly compares only the watched simulated metrics: timings and
	// throughput are reported informationally but never regress, and metric
	// drift in EITHER direction past MetricTolerance is a regression. This
	// is the identity gate between two records of the same simulation that
	// legitimately differ in wall time — e.g. two hosts or -parallel
	// settings, whose simulated metrics must not drift at all (tolerance 0).
	MetricsOnly bool
}

// Diff compares new against old and returns every delta plus whether any
// regression crossed tolerance. Total wall time regresses when new exceeds
// old*(1+tol); throughput regresses when new falls below old*(1-tol);
// watched metrics regress when they drift past MetricTolerance in their
// bad direction. A regeneration resolves every cell in one grid, so the
// record has no per-experiment timing to compare.
func Diff(old, new *Record, opts Options) (deltas []Delta, regressed bool) {
	tol := opts.Tolerance
	mtol := opts.MetricTolerance
	if mtol == 0 && !opts.MetricsOnly {
		// Metrics-only gates take MetricTolerance literally (0 = exact);
		// otherwise 0 means "same as the timing tolerance".
		mtol = tol
	}

	// Timings: total wall time is worse higher, throughput lower.
	for _, q := range []struct {
		name  string
		o, n  float64
		worse float64
	}{
		{"total_wall_ms", old.TotalWallMS, new.TotalWallMS, +1},
		{"experiments_per_sec", old.ExperimentsPerSec, new.ExperimentsPerSec, -1},
	} {
		d := Delta{Name: q.name, Old: q.o, New: q.n, Pct: pctDelta(q.o, q.n)}
		switch {
		case q.o <= 0:
			d.Note = "no baseline"
		case opts.MetricsOnly:
			d.Note = "metrics-only, informational"
		default:
			d.Regression = q.worse*(q.n-q.o) > tol*q.o
		}
		deltas = append(deltas, d)
		regressed = regressed || d.Regression
	}

	if old.Metrics != nil && new.Metrics != nil {
		for _, w := range watchedMetrics {
			o := float64(old.Metrics.Counter(w.name))
			n := float64(new.Metrics.Counter(w.name))
			if o == 0 && n == 0 {
				continue
			}
			d := Delta{Name: "metric " + w.name, Old: o, New: n, Pct: pctDelta(o, n)}
			switch {
			case o == 0:
				d.Note = "no baseline"
			case opts.MetricsOnly && (n > o*(1+mtol) || n < o*(1-mtol)):
				// Identity gate: drift in either direction is a failure.
				d.Regression = true
			case opts.MetricsOnly:
			case w.worse > 0 && n > o*(1+mtol):
				d.Regression = true
			case w.worse < 0 && n < o*(1-mtol):
				d.Regression = true
			}
			deltas = append(deltas, d)
			regressed = regressed || d.Regression
		}
	} else if old.Metrics == nil && new.Metrics != nil {
		deltas = append(deltas, Delta{Name: "metrics", Note: "baseline has no metrics section; skipped"})
	}

	// Scalability curves: simulated quantities, gated like watched metrics.
	// Higher is worse in the normal mode; any drift fails a metrics-only
	// identity gate. Curves or points present in only one record are noted
	// but never regress (the S-family and its -scaling-procs grid grow).
	oldCurves := make(map[string]Curve, len(old.Curves))
	for _, c := range old.Curves {
		oldCurves[c.ID] = c
	}
	for _, c := range new.Curves {
		oc, ok := oldCurves[c.ID]
		if !ok {
			deltas = append(deltas, Delta{Name: "curve " + c.ID, Note: "only in new"})
			continue
		}
		oldPts := make(map[int]CurvePoint, len(oc.Points))
		for _, p := range oc.Points {
			oldPts[p.Procs] = p
		}
		for _, p := range c.Points {
			op, ok := oldPts[p.Procs]
			if !ok {
				deltas = append(deltas, Delta{Name: fmt.Sprintf("curve %s P=%d", c.ID, p.Procs), Note: "only in new"})
				continue
			}
			for _, q := range []struct {
				name string
				o, n float64
			}{
				{"exec_cycles", op.ExecCycles, p.ExecCycles},
				{"read_stall", op.ReadStall, p.ReadStall},
				{"write_stall", op.WriteStall, p.WriteStall},
				{"buffer_flush", op.BufferFlush, p.BufferFlush},
				{"sync_wait", op.SyncWait, p.SyncWait},
			} {
				if q.o == 0 && q.n == 0 {
					continue
				}
				d := Delta{
					Name: fmt.Sprintf("curve %s P=%d %s", c.ID, p.Procs, q.name),
					Old:  q.o, New: q.n, Pct: pctDelta(q.o, q.n),
				}
				switch {
				case q.o == 0:
					d.Note = "no baseline"
				case opts.MetricsOnly && (q.n > q.o*(1+mtol) || q.n < q.o*(1-mtol)):
					d.Regression = true
				case opts.MetricsOnly:
				case q.n > q.o*(1+mtol):
					d.Regression = true
				}
				deltas = append(deltas, d)
				regressed = regressed || d.Regression
			}
		}
	}

	return deltas, regressed
}

func pctDelta(o, n float64) float64 {
	if o == 0 {
		return 0
	}
	return (n - o) / o * 100
}

// Format renders deltas as a readable table, regressions marked with '!'.
func Format(deltas []Delta, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %12s %9s\n", "quantity", "old", "new", "delta")
	for _, d := range deltas {
		mark := " "
		if d.Regression {
			mark = "!"
		}
		note := d.Note
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(&b, "%s %-32s %12s %12s %8.1f%%%s\n",
			mark, d.Name, num(d.Old), num(d.New), d.Pct, note)
	}
	return b.String()
}

func num(v float64) string {
	if v == float64(int64(v)) && v < 1e12 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
