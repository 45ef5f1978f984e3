package machine

import (
	"runtime"
	"testing"

	"zsim/internal/memsys"
)

// Parameter blocks whose fields once sized host allocations directly: a
// per-node store-buffer occupancy array of StoreBufEntries+1 words and a
// per-node finite cache of CacheLines/CacheAssoc sets (2.1 GB and 1.6 GB
// at 16 processors; TiBs, and a fatal out-of-memory, at 2^40).
var hugeBufferParams = []string{
	`{"StoreBufEntries":16777216}`,
	`{"FiniteCache":true,"CacheLines":4194304,"CacheAssoc":1}`,
	`{"StoreBufEntries":1099511627776}`,
	`{"FiniteCache":true,"CacheLines":1099511627776,"CacheAssoc":1}`,
}

// buildBytes builds a machine of the given kind and returns the heap bytes
// the build allocated (New's error, if any, is returned too).
func buildBytes(kind memsys.Kind, p memsys.Params) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(kind, p)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestNewCostIndependentOfBufferSizes: building a 16-processor machine
// costs well under 1 MB on every system however deep its store buffers or
// large its finite caches are configured.
func TestNewCostIndependentOfBufferSizes(t *testing.T) {
	for _, js := range hugeBufferParams {
		p, err := memsys.ParamsFromJSON([]byte(js))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range memsys.Kinds() {
			got, err := buildBytes(kind, p)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, js, err)
			}
			if got >= 1<<20 {
				t.Errorf("%s %s: New allocated %d bytes, want under 1 MiB", kind, js, got)
			}
		}
	}
}

// FuzzNewMachine decodes the input as a client parameter block through
// memsys.ParamsFromJSON, the untrusted boundary zsimd exposes. For every
// block it accepts, building a machine of each memory-system kind must not
// panic and must allocate under 64 MiB (a default 1024-processor hier
// build takes about 9 MB). The machines are built, never run.
func FuzzNewMachine(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Procs":1024,"Topology":"hier"}`))
	for _, js := range hugeBufferParams {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := memsys.ParamsFromJSON(data)
		if err != nil {
			return
		}
		for _, kind := range memsys.Kinds() {
			got, err := buildBytes(kind, p)
			if err != nil {
				t.Fatalf("%s: New rejected parameters ParamsFromJSON accepted: %v", kind, err)
			}
			if got >= 64<<20 {
				t.Fatalf("%s: New allocated %d bytes for %s, want under 64 MiB", kind, got, data)
			}
		}
	})
}
