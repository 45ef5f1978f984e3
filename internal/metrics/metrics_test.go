package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestGaugeTracksMax(t *testing.T) {
	var s Snapshot
	s.SetGauge("g", 5)
	s.SetGauge("g", 2)
	s.SetGauge("g", 3)
	if g := s.Gauges["g"]; g.Value != 3 || g.Max != 5 {
		t.Fatalf("gauge = %+v, want value 3 max 5", g)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var s Snapshot
	for _, v := range []uint64{0, 1, 2, 4, 5, 100} {
		s.ObserveN("h", []uint64{16, 1, 4}, v, 1)
	}
	h := s.Histograms["h"]
	if want := []uint64{1, 4, 16}; !reflect.DeepEqual(h.Bounds, want) {
		t.Fatalf("bounds = %v, want sorted %v", h.Bounds, want)
	}
	want := []uint64{2, 2, 1, 1} // ≤1, ≤4, ≤16, overflow
	if !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 6 || h.Sum != 112 || h.Max != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 6/112/100", h.Count, h.Sum, h.Max)
	}
}

// TestObserveNMatchesRepeatedObserve: folding a per-value count in with
// ObserveN leaves the histogram exactly as that many single observations
// would, and a zero count registers the histogram but records nothing (not
// even the maximum).
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	var one, many Snapshot
	bounds := []uint64{1, 4, 16}
	counts := map[uint64]uint64{0: 3, 2: 5, 16: 1, 40: 2}
	for v, n := range counts {
		for i := uint64(0); i < n; i++ {
			one.ObserveN("h", bounds, v, 1)
		}
		many.ObserveN("h", bounds, v, n)
	}
	many.ObserveN("h", bounds, 1000, 0)
	a, b := one.Histograms["h"], many.Histograms["h"]
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveN histogram %+v, single-observation histogram %+v", b, a)
	}
	if b.Count != 11 || b.Sum != 106 || b.Max != 40 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 11/106/40", b.Count, b.Sum, b.Max)
	}
	var empty Snapshot
	empty.ObserveN("h", bounds, 7, 0)
	if h, ok := empty.Histograms["h"]; !ok || h.Count != 0 || h.Max != 0 || len(h.Counts) != 4 {
		t.Fatalf("zero-count ObserveN = %+v (present %v), want an empty registered histogram", h, ok)
	}
}

// TestHistogramKeepsFirstBounds: a histogram keeps the bounds it was
// created with, both for later observations and for merges; a merged
// histogram with a different bucket count is dropped rather than misfiled.
func TestHistogramKeepsFirstBounds(t *testing.T) {
	var s Snapshot
	s.ObserveN("x", []uint64{1}, 0, 1)
	s.ObserveN("x", []uint64{2, 3}, 5, 1)
	if h := s.Histograms["x"]; !reflect.DeepEqual(h.Bounds, []uint64{1}) || !reflect.DeepEqual(h.Counts, []uint64{1, 1}) {
		t.Fatalf("histogram = %+v, want first bounds [1] and counts [1 1]", h)
	}
	var o Snapshot
	o.ObserveN("x", []uint64{2, 3}, 0, 4)
	s.Merge(o)
	if h := s.Histograms["x"]; h.Count != 2 {
		t.Fatalf("mismatched merge changed the histogram: %+v", h)
	}
}

func TestMergeIsCommutative(t *testing.T) {
	mk := func(c uint64, g int64, obs []uint64) Snapshot {
		var s Snapshot
		s.Add("c", c)
		s.SetGauge("g", g)
		for _, v := range obs {
			s.ObserveN("h", []uint64{2, 8}, v, 1)
		}
		return s
	}
	a, b := mk(3, 10, []uint64{1, 9}), mk(4, 7, []uint64{3})

	var d1, d2 Snapshot
	d1.Merge(a)
	d1.Merge(b)
	d2.Merge(b)
	d2.Merge(a)

	j1, _ := json.Marshal(d1)
	j2, _ := json.Marshal(d2)
	if string(j1) != string(j2) {
		t.Fatalf("merge order changed the snapshot:\n%s\nvs\n%s", j1, j2)
	}
	if d1.Counter("c") != 7 {
		t.Fatalf("merged counter = %d, want 7", d1.Counter("c"))
	}
	if g := d1.Gauges["g"]; g.Value != 10 || g.Max != 10 {
		t.Fatalf("merged gauge = %+v, want value 10 max 10", g)
	}
	if h := d1.Histograms["h"]; h.Count != 3 || h.Sum != 13 || h.Max != 9 {
		t.Fatalf("merged histogram = %+v", h)
	}
	// The sources are untouched: a merge copies, it never aliases.
	if h := a.Histograms["h"]; h.Count != 2 || h.Counts[0] != 1 {
		t.Fatalf("merge mutated its source: %+v", h)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	var s Snapshot
	for _, n := range []string{"z", "a", "m"} {
		s.Add(n, 1)
	}
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s.Clone())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", j1, j2)
	}
}

// part is one producer's contribution in the concurrency tests.
func part(i int) Snapshot {
	var s Snapshot
	s.Add("c", uint64(i))
	s.Add(fmt.Sprintf("c%d", i%3), 1)
	s.SetGauge("g", int64(i%5))
	s.ObserveN("h", []uint64{10, 100}, uint64(i), 2)
	return s
}

// TestConcurrentUpdates: merging and adding into an Aggregate from many
// goroutines (run under -race) gives exactly the snapshot of the same
// merges done serially.
func TestConcurrentUpdates(t *testing.T) {
	const n = 64
	var serial, concurrent Aggregate
	for i := 0; i < n; i++ {
		serial.Merge(part(i))
		serial.Add("adds", 1)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent.Merge(part(i))
			concurrent.Add("adds", 1)
			_ = concurrent.Snapshot()
		}()
	}
	wg.Wait()
	a, b := serial.Snapshot(), concurrent.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("concurrent merges diverged from serial:\n%s\nvs\n%s", b, a)
	}
	if a.Counter("c") != n*(n-1)/2 || a.Counter("adds") != n || a.Histograms["h"].Count != 2*n {
		t.Fatalf("aggregate totals wrong:\n%s", a)
	}
	concurrent.Reset()
	if s := concurrent.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("Reset left metrics behind:\n%s", s)
	}
}

// TestSnapshotCopyIsIndependent: mutating the maps and slices of a
// Snapshot() copy never changes what the aggregate reports later.
func TestSnapshotCopyIsIndependent(t *testing.T) {
	var a Aggregate
	a.Merge(part(7))
	want := a.Snapshot()
	got := a.Snapshot()
	got.Counters["c"] = 1000
	got.Counters["new"] = 1
	got.Gauges["g"] = GaugeSnapshot{Value: 99, Max: 99}
	got.Histograms["h"].Counts[0] = 1000
	got.Histograms["h"].Bounds[0] = 1000
	delete(got.Histograms, "h")
	if later := a.Snapshot(); !reflect.DeepEqual(later, want) {
		t.Fatalf("mutating a snapshot copy changed the aggregate:\n%s\nvs\n%s", later, want)
	}
}

func TestSnapshotString(t *testing.T) {
	var s Snapshot
	s.Add("sim.switches", 42)
	s.SetGauge("cache.resident_lines", 7)
	s.ObserveN("mesh.hops", []uint64{1, 2}, 2, 1)
	out := s.String()
	for _, want := range []string{"sim.switches", "42", "cache.resident_lines", "(max 7)", "mesh.hops", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot string missing %q:\n%s", want, out)
		}
	}
}
