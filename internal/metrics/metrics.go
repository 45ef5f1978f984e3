// Package metrics accounts the simulator's *own* overheads — counters,
// gauges, and fixed-bucket histograms — mirroring the paper's premise that
// you cannot reason about a memory system you do not measure. Simulated
// virtual time is never read or written through this package, so simulated
// results are byte-identical with metrics on or off.
//
// Cost model: every metric is a plain value in a Snapshot. The simulator's
// per-event paths (sim, mesh, wbuffer, proto) never call this package: each
// component keeps plain counts — totals, and per-value counts for the
// distributions — and its PublishMetrics writes them into its machine's
// Snapshot once, when the run ends (histograms via ObserveN). The machine
// then folds that Snapshot into Default with one Merge. The runner and
// zsimd likewise build their host-side values locally and merge them once.
// Default's mutex is the only synchronization; the Enable flag is checked
// only where data enters (Machine.Run, runner.Grid, zsimd), never here.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// on is the package-wide enable flag.
var on atomic.Bool

// Enable turns metric recording on or off and returns the previous state.
// A machine harvests its run's metrics only if recording is on when the
// run ends.
func Enable(v bool) bool { return on.Swap(v) }

// Enabled reports whether metric recording is on. Producers check it
// before building a Snapshot; the Snapshot and Default methods do not.
func Enabled() bool { return on.Load() }

// HistogramSnapshot is one histogram's state. Bounds are inclusive upper
// bounds; one overflow bucket follows the last bound.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// GaugeSnapshot is one gauge's state: an instantaneous level plus its
// observed maximum (occupancy metrics: busy workers, resident cache lines).
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a set of named metrics held as plain values, and the
// JSON-marshalable form every metric takes. The zero value is empty and
// ready for use; it is not safe for concurrent use (Default is the shared
// aggregate). Map iteration is randomized in Go, but encoding/json marshals
// maps with sorted keys, so an emitted snapshot is a deterministic function
// of the metric values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Add adds n to the named counter, creating it (even when n is 0).
func (s *Snapshot) Add(name string, n uint64) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	s.Counters[name] += n
}

// SetGauge stores the named gauge's current level and raises its maximum.
func (s *Snapshot) SetGauge(name string, v int64) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]GaugeSnapshot)
	}
	g := s.Gauges[name]
	g.Value = v
	g.Max = max(g.Max, v)
	s.Gauges[name] = g
}

// ObserveN records the value v n times in the named histogram — how a
// component folds its plain per-value counts in at harvest. The histogram
// is created on first use with the given bounds (later calls keep the
// first bounds), so a call with n == 0 registers it without observing.
func (s *Snapshot) ObserveN(name string, bounds []uint64, v, n uint64) {
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	h, ok := s.Histograms[name]
	if !ok {
		h.Bounds = append([]uint64(nil), bounds...)
		sort.Slice(h.Bounds, func(i, j int) bool { return h.Bounds[i] < h.Bounds[j] })
		h.Counts = make([]uint64, len(h.Bounds)+1)
	}
	if n > 0 {
		i := sort.Search(len(h.Bounds), func(i int) bool { return h.Bounds[i] >= v })
		h.Counts[i] += n
		h.Count += n
		h.Sum += v * n
		h.Max = max(h.Max, v)
	}
	s.Histograms[name] = h
}

// Merge folds o into s: counters add, gauge levels and maxima take the
// maximum (occupancy semantics), histogram buckets add. Every merge
// operation is commutative, so aggregating parallel runs yields the same
// totals regardless of completion order — which is what keeps the
// simulated portion of a bench record independent of -parallel. A
// histogram whose bucket count disagrees with s's keeps s's registration.
// s never aliases o's slices.
func (s *Snapshot) Merge(o Snapshot) {
	for n, v := range o.Counters {
		s.Add(n, v)
	}
	for n, og := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]GaugeSnapshot)
		}
		g := s.Gauges[n]
		g.Value = max(g.Value, og.Value)
		g.Max = max(g.Max, og.Value, og.Max)
		s.Gauges[n] = g
	}
	for n, oh := range o.Histograms {
		s.ObserveN(n, oh.Bounds, 0, 0)
		h := s.Histograms[n]
		if len(h.Counts) != len(oh.Counts) {
			continue
		}
		for i, c := range oh.Counts {
			h.Counts[i] += c
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		h.Max = max(h.Max, oh.Max)
		s.Histograms[n] = h
	}
}

// Clone returns a deep copy of s whose maps are never nil, so a caller may
// mutate it freely.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for n, v := range s.Counters {
		c.Counters[n] = v
	}
	for n, g := range s.Gauges {
		c.Gauges[n] = g
	}
	for n, h := range s.Histograms {
		h.Bounds = append([]uint64(nil), h.Bounds...)
		h.Counts = append([]uint64(nil), h.Counts...)
		c.Histograms[n] = h
	}
	return c
}

// Counter returns the named counter's value in the snapshot (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// String renders the snapshot as sorted "name value" lines, histograms as
// count/max plus bucket counts.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%-28s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "%-28s %d (max %d)\n", n, g.Value, g.Max)
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-28s n=%d max=%d buckets=%v le=%v\n", n, h.Count, h.Max, h.Counts, h.Bounds)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Aggregate is a Snapshot behind a mutex: the one metrics value shared
// between goroutines.
type Aggregate struct {
	mu sync.Mutex
	s  Snapshot
}

// Default is the process-global aggregate: machines merge their run's
// Snapshot into it when a run completes, runner.Grid merges its host-side
// grid metrics once its pool drains, and zsimd adds its job counters.
var Default = &Aggregate{}

// Merge folds s into the aggregate (see Snapshot.Merge).
func (a *Aggregate) Merge(s Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.Merge(s)
}

// Add adds n to the named counter.
func (a *Aggregate) Add(name string, n uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.Add(name, n)
}

// Snapshot returns a deep copy of the aggregate's current values.
func (a *Aggregate) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.Clone()
}

// Reset drops every metric (Default is reset between paperbench phases).
func (a *Aggregate) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s = Snapshot{}
}

// Publisher is implemented by components that publish plain internal
// counts into a Snapshot at harvest points (end of a machine run).
type Publisher interface {
	PublishMetrics(s *Snapshot)
}
