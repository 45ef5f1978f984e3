// Package metrics is a dependency-free registry of atomic counters, gauges,
// and fixed-bucket histograms used to account the simulator's *own*
// overheads, mirroring the paper's premise that you cannot reason about a
// memory system you do not measure. Simulated virtual time is never read or
// written through this package, so simulated results are byte-identical
// with metrics on or off.
//
// Cost model: the simulator's per-event paths (sim, mesh, wbuffer, proto)
// never call this package. Each component keeps plain counts — totals, and
// per-value counts for the distributions — and its PublishMetrics folds
// them into a registry once, when a machine's run ends and only if Enable
// is on (histograms via ObserveN). Host-side recorders (runner, zsimd)
// write into Default directly, gated on the same package-level flag.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// on is the package-wide enable flag; all mutation is gated on it.
var on atomic.Bool

// Enable turns metric recording on or off and returns the previous state.
// A machine harvests its run's metrics only if recording is on when the
// run ends.
func Enable(v bool) bool { return on.Swap(v) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return on.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level plus its observed maximum (occupancy
// metrics: directory entries, busy workers, resident cache lines).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the current level and raises the observed maximum.
func (g *Gauge) Set(v int64) {
	if !on.Load() {
		return
	}
	g.v.Store(v)
	g.raiseMax(v)
}

// Add moves the level by d (negative to decrease) and raises the maximum.
func (g *Gauge) Add(d int64) {
	if !on.Load() {
		return
	}
	g.raiseMax(g.v.Add(d))
}

func (g *Gauge) raiseMax(v int64) { raiseI64(&g.max, v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the highest level observed.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-bucket histogram of uint64 observations. Bounds are
// inclusive upper bounds; one overflow bucket follows the last bound.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records the value v n times — how a component folds its plain
// per-value counts into the histogram at harvest.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 || !on.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	raiseU64(&h.max, v)
}

// Registry is a named collection of metrics. Each Machine owns one; the
// package-level Default aggregates across runs (see Merge).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-global registry: machines merge their per-run
// registries into it when a run completes, and the runner records
// host-side grid metrics (cell wall time, worker occupancy) directly.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// inclusive upper bounds on first use (later calls keep the first bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset drops every metric (Default is reset between paperbench phases).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
}

// Merge folds src into r: counters add, gauge levels and maxima take the
// maximum (occupancy semantics), histogram buckets add. Every merge
// operation is commutative, so aggregating parallel runs yields the same
// totals regardless of completion order — which is what keeps the
// simulated portion of a bench record independent of -parallel.
func (r *Registry) Merge(src *Registry) {
	if !on.Load() {
		return
	}
	src.mu.Lock()
	type hcopy struct {
		bounds          []uint64
		counts          []uint64
		count, sum, max uint64
	}
	counters := make(map[string]uint64, len(src.counters))
	for n, c := range src.counters {
		counters[n] = c.v.Load()
	}
	gauges := make(map[string][2]int64, len(src.gauges))
	for n, g := range src.gauges {
		gauges[n] = [2]int64{g.v.Load(), g.max.Load()}
	}
	hists := make(map[string]hcopy, len(src.hists))
	for n, h := range src.hists {
		counts := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			counts[i] = h.buckets[i].Load()
		}
		hists[n] = hcopy{bounds: h.bounds, counts: counts,
			count: h.count.Load(), sum: h.sum.Load(), max: h.max.Load()}
	}
	src.mu.Unlock()

	for n, v := range counters {
		r.Counter(n).Add(v)
	}
	for n, vm := range gauges {
		g := r.Gauge(n)
		raiseI64(&g.v, vm[0])
		g.raiseMax(vm[0])
		g.raiseMax(vm[1])
	}
	for n, hc := range hists {
		h := r.Histogram(n, hc.bounds)
		if len(h.buckets) != len(hc.counts) {
			continue // bounds mismatch: keep the first registration
		}
		for i, c := range hc.counts {
			h.buckets[i].Add(c)
		}
		h.count.Add(hc.count)
		h.sum.Add(hc.sum)
		raiseU64(&h.max, hc.max)
	}
}

// raiseI64 lifts a to at least v.
func raiseI64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// raiseU64 lifts a to at least v.
func raiseU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a frozen, JSON-marshalable view of a registry. Map iteration
// is randomized in Go, but encoding/json marshals maps with sorted keys, so
// an emitted snapshot is a deterministic function of the metric values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.v.Load()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeSnapshot{Value: g.v.Load(), Max: g.max.Load()}
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Max:    h.max.Load(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[n] = hs
	}
	return s
}

// Counter returns the named counter's value in the snapshot (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// String renders the snapshot as sorted "name value" lines, histograms as
// count/max plus bucket counts.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "%-28s %d (max %d)\n", n, g.Value, g.Max)
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-28s n=%d max=%d buckets=%v le=%v\n", n, h.Count, h.Max, h.Counts, h.Bounds)
	}
	return b.String()
}

// Publisher is implemented by components that publish plain internal
// counters into a registry at harvest points (end of a machine run).
type Publisher interface {
	PublishMetrics(r *Registry)
}
