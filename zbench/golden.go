package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"zsim/internal/machine"
	"zsim/internal/stats"
)

//go:embed golden.json
var goldenJSON []byte

// Golden is one cell's committed simulated outcome at DefaultSeed.
type Golden struct {
	// Digest hashes the Result: ExecTime, the per-processor breakdown and
	// the protocol Counters.
	Digest   string            `json:"digest"`
	Counters map[string]uint64 `json:"counters"`
}

// Goldens maps "<workload>/<cell>" to the cell's golden.
type Goldens map[string]Golden

// loadGoldens parses the embedded goldens.
func loadGoldens() (Goldens, error) {
	var g Goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse golden.json: %w", err)
	}
	return g, nil
}

// writeGoldens writes goldens as indented JSON (sorted keys).
func writeGoldens(path string, g Goldens) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("encode goldens: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write goldens: %w", err)
	}
	return nil
}

// digest hashes the simulated parts of a Result.
func digest(r *stats.Result) string {
	b, err := json.Marshal(struct {
		ExecTime any
		Procs    any
		Counters any
	}{r.ExecTime, r.Procs, r.Counters})
	if err != nil {
		panic(err) // plain structs of integers always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// observe collects a finished cell's simulated outcome. The exec time,
// trap count, protocol counters and mesh messages are readable on every
// run; directory and cache totals come from the machine's metrics
// registry, so they appear only when metrics are enabled.
func observe(r *stats.Result, m *machine.Machine, metricsOn bool) Golden {
	c := r.Counters
	g := Golden{Digest: digest(r), Counters: map[string]uint64{
		"exec_cycles":              uint64(r.ExecTime),
		"sim.yields":               m.Eng.Switches() + m.Eng.FastPathHits(),
		"proto.reads":              c.Reads,
		"proto.writes":             c.Writes,
		"proto.read_misses":        c.ReadMisses,
		"proto.write_misses":       c.WriteMisses,
		"proto.cold_misses":        c.ColdMisses,
		"proto.msgs":               c.Messages,
		"proto.data_msgs":          c.DataMsgs,
		"proto.bytes":              c.Bytes,
		"proto.invalidations":      c.Invalidations,
		"proto.updates":            c.Updates,
		"proto.useless_updates":    c.UselessUpdates,
		"proto.self_invalidations": c.SelfInvalidations,
		"proto.prefetches":         c.Prefetches,
		"proto.pointer_evictions":  c.PointerEvictions,
		"mesh.msgs":                m.Net.Messages(),
	}}
	if metricsOn {
		snap := m.Metrics()
		g.Counters["directory.allocs"] = snap.Counter("directory.allocs")
		g.Counters["cache.evictions"] = snap.Counter("cache.evictions")
	}
	return g
}

// check compares an observed outcome with the golden and describes every
// drift. Counters absent from the observation (metrics off) are skipped.
func (want Golden) check(got Golden) error {
	var drift []string
	names := make([]string, 0, len(got.Counters))
	for n := range got.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w, ok := want.Counters[n]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s has no golden", n))
		} else if got.Counters[n] != w {
			drift = append(drift, fmt.Sprintf("%s = %d, golden %d", n, got.Counters[n], w))
		}
	}
	if got.Digest != want.Digest {
		drift = append(drift, fmt.Sprintf("result digest %s, golden %s", got.Digest, want.Digest))
	}
	if len(drift) > 0 {
		return fmt.Errorf("golden mismatch: %s", strings.Join(drift, "; "))
	}
	return nil
}
