package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs f with the package gate set, restoring it afterwards.
func withEnabled(t *testing.T, v bool, f func()) {
	t.Helper()
	prev := Enable(v)
	defer Enable(prev)
	f()
}

func TestCounterGatedOnEnable(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	withEnabled(t, false, func() {
		c.Inc()
		c.Add(10)
	})
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
	withEnabled(t, true, func() {
		c.Inc()
		c.Add(10)
	})
	if got := c.Value(); got != 11 {
		t.Fatalf("enabled counter = %d, want 11", got)
	}
}

func TestGaugeTracksMax(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		g := r.Gauge("g")
		g.Set(5)
		g.Set(2)
		g.Add(1)
		if g.Value() != 3 {
			t.Fatalf("gauge value = %d, want 3", g.Value())
		}
		if g.Max() != 5 {
			t.Fatalf("gauge max = %d, want 5", g.Max())
		}
	})
}

func TestHistogramBuckets(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		h := r.Histogram("h", []uint64{1, 4, 16})
		for _, v := range []uint64{0, 1, 2, 4, 5, 100} {
			h.Observe(v)
		}
		s := r.Snapshot().Histograms["h"]
		want := []uint64{2, 2, 1, 1} // ≤1, ≤4, ≤16, overflow
		for i, w := range want {
			if s.Counts[i] != w {
				t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
			}
		}
		if s.Count != 6 || s.Sum != 112 || s.Max != 100 {
			t.Fatalf("count/sum/max = %d/%d/%d, want 6/112/100", s.Count, s.Sum, s.Max)
		}
	})
}

// TestObserveNMatchesRepeatedObserve: folding a per-value count in with
// ObserveN leaves the histogram exactly as that many Observe calls would,
// and a zero count records nothing (not even the maximum).
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		one := r.Histogram("one", []uint64{1, 4, 16})
		many := r.Histogram("many", []uint64{1, 4, 16})
		counts := map[uint64]uint64{0: 3, 2: 5, 16: 1, 40: 2}
		for v, n := range counts {
			for i := uint64(0); i < n; i++ {
				one.Observe(v)
			}
			many.ObserveN(v, n)
		}
		many.ObserveN(1000, 0)
		s := r.Snapshot()
		a, b := s.Histograms["one"], s.Histograms["many"]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ObserveN histogram %+v, Observe histogram %+v", b, a)
		}
		if b.Count != 11 || b.Sum != 106 || b.Max != 40 {
			t.Fatalf("count/sum/max = %d/%d/%d, want 11/106/40", b.Count, b.Sum, b.Max)
		}
	})
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("x", []uint64{1}) != r.Histogram("x", []uint64{2, 3}) {
		t.Fatal("Histogram not idempotent")
	}
}

func TestMergeIsCommutative(t *testing.T) {
	withEnabled(t, true, func() {
		mk := func(c uint64, g int64, obs []uint64) *Registry {
			r := NewRegistry()
			r.Counter("c").Add(c)
			r.Gauge("g").Set(g)
			h := r.Histogram("h", []uint64{2, 8})
			for _, v := range obs {
				h.Observe(v)
			}
			return r
		}
		a := func() (*Registry, *Registry) {
			return mk(3, 10, []uint64{1, 9}), mk(4, 7, []uint64{3})
		}

		r1, r2 := a()
		d1 := NewRegistry()
		d1.Merge(r1)
		d1.Merge(r2)
		r3, r4 := a()
		d2 := NewRegistry()
		d2.Merge(r4)
		d2.Merge(r3)

		s1, s2 := d1.Snapshot(), d2.Snapshot()
		j1, _ := json.Marshal(s1)
		j2, _ := json.Marshal(s2)
		if string(j1) != string(j2) {
			t.Fatalf("merge order changed the snapshot:\n%s\nvs\n%s", j1, j2)
		}
		if s1.Counter("c") != 7 {
			t.Fatalf("merged counter = %d, want 7", s1.Counter("c"))
		}
		if s1.Gauges["g"].Max != 10 {
			t.Fatalf("merged gauge max = %d, want 10", s1.Gauges["g"].Max)
		}
		if h := s1.Histograms["h"]; h.Count != 3 || h.Sum != 13 || h.Max != 9 {
			t.Fatalf("merged histogram = %+v", h)
		}
	})
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		for _, n := range []string{"z", "a", "m"} {
			r.Counter(n).Inc()
		}
		j1, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		j2, _ := json.Marshal(r.Snapshot())
		if string(j1) != string(j2) {
			t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", j1, j2)
		}
	})
}

func TestConcurrentUpdates(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					r.Counter("c").Inc()
					r.Gauge("g").Set(int64(i))
					r.Histogram("h", []uint64{10, 100}).Observe(uint64(i))
				}
			}()
		}
		wg.Wait()
		if got := r.Counter("c").Value(); got != 8000 {
			t.Fatalf("counter = %d, want 8000", got)
		}
		if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
			t.Fatalf("histogram count = %d, want 8000", got)
		}
	})
}

func TestSnapshotString(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		r.Counter("sim.switches").Add(42)
		r.Gauge("directory.entries").Set(7)
		r.Histogram("mesh.hops", []uint64{1, 2}).Observe(2)
		out := r.Snapshot().String()
		for _, want := range []string{"sim.switches", "42", "directory.entries", "mesh.hops"} {
			if !strings.Contains(out, want) {
				t.Fatalf("snapshot string missing %q:\n%s", want, out)
			}
		}
	})
}
