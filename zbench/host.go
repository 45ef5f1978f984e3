package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rm "runtime/metrics"
	"strings"
	"syscall"
)

// Go runtime metrics read around each pass.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmMallocs    = "/gc/heap/allocs:objects"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmSched      = "/sched/latencies:seconds"
)

// hostSample is a reading of the Go runtime's cumulative counters.
type hostSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU                         float64
	sched                         *rm.Float64Histogram
}

// hostDelta is what the runtime did between two samples.
type hostDelta struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU                         float64
	// schedCounts are the scheduling-latency histogram's per-bucket counts
	// over the interval; schedBuckets are its boundaries (seconds).
	schedCounts  []uint64
	schedBuckets []float64
}

func readHost() hostSample {
	s := []rm.Sample{{Name: rmAllocBytes}, {Name: rmMallocs}, {Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmSched}}
	rm.Read(s)
	h := hostSample{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
	src := s[4].Value.Float64Histogram()
	h.sched = &rm.Float64Histogram{Counts: append([]uint64(nil), src.Counts...), Buckets: src.Buckets}
	return h
}

func (h hostSample) since(prev hostSample) hostDelta {
	d := hostDelta{
		allocBytes:   h.allocBytes - prev.allocBytes,
		mallocs:      h.mallocs - prev.mallocs,
		gcCycles:     h.gcCycles - prev.gcCycles,
		gcCPU:        h.gcCPU - prev.gcCPU,
		schedBuckets: h.sched.Buckets,
		schedCounts:  make([]uint64, len(h.sched.Counts)),
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = h.sched.Counts[i] - prev.sched.Counts[i]
	}
	return d
}

// schedP50 returns the median scheduling latency, in seconds, of the
// summed histograms: the geometric midpoint of the bucket holding the
// median (the bucket's finite bound when the other is infinite).
func schedP50(ds []hostDelta) float64 {
	if len(ds) == 0 {
		return 0
	}
	counts := make([]uint64, len(ds[0].schedCounts))
	var total uint64
	for _, d := range ds {
		for i, c := range d.schedCounts {
			counts[i] += c
			total += c
		}
	}
	buckets := ds[0].schedBuckets
	var cum uint64
	for i, c := range counts {
		cum += c
		if c > 0 && 2*cum >= total {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(lo, -1) || lo <= 0:
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return math.Sqrt(lo * hi)
		}
	}
	return 0
}

// peakRSSBytes returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSBytes() (uint64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return uint64(ru.Maxrss) * 1024, nil
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fingerprint identifies the host a result was measured on. Wall times
// are only compared between results with the same fingerprint.
func fingerprint() string {
	return fmt.Sprintf("host go=%s nproc=%d gomaxprocs=%d os=%s/%s cpu=%q",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, cpuModel())
}
