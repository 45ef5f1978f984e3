package zsimdtest

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"zsim/internal/zsimd"
	"zsim/internal/zsimd/client"
	"zsim/internal/zsimdtest/dependencies"
)

// quickCell is a cell small enough that fault tests spend their time in
// the scenario, not the simulation.
func quickCell() zsimd.CellSpec {
	return zsimd.CellSpec{Type: zsimd.TypeBenchmark, App: "is", System: "rcinv",
		Params: json.RawMessage(`{"Procs":4}`)}
}

// waitState polls through the client until the job reports the wanted
// state (terminal or not).
func waitState(t *testing.T, c *client.Client, id string, want zsimd.JobState) zsimd.JobStatus {
	t.Helper()
	ctx := Ctx(t)
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (%s) while waiting for %s", id, st.State, st.Error, want)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for job %s to reach %s (last: %s)", id, want, st.State)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestStoreWriteFailureFailsJobNotDaemon: with store writes disrupted,
// the job must fail with the write error, nothing may be cached, and the
// daemon must keep serving.
func TestStoreWriteFailureFailsJobNotDaemon(t *testing.T) {
	ctx := Ctx(t)
	g := NewGroup(t, zsimd.Config{Deps: dependencies.StoreWriteFail{}})
	c := g.C()

	st, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != zsimd.JobFailed || !strings.Contains(st.Error, "injected write failure") {
		t.Fatalf("job = %s (%q), want failed with the injected write error", st.State, st.Error)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("result of a failed job served without error")
	}

	// The daemon survived: health is ok and nothing leaked into the store.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.StoreEntries != 0 {
		t.Fatalf("health after store failure = %+v, want ok with empty store", h)
	}
	// And it still accepts work (which fails again — the fault is sticky
	// in this group — but the API keeps answering).
	if _, err := c.Submit(ctx, quickCell()); err != nil {
		t.Fatalf("daemon stopped accepting submissions after a store failure: %v", err)
	}
}

// TestWorkerPanicFailsJobNotDaemon: a cell panicking on the worker pool
// must surface as a failed job — the runner re-raises the panic after the
// pool drains, and the job runner converts it — while the daemon and its
// remaining workers keep serving.
func TestWorkerPanicFailsJobNotDaemon(t *testing.T) {
	ctx := Ctx(t)
	g := NewGroup(t, zsimd.Config{Deps: dependencies.WorkerPanic{}, Workers: 1})
	c := g.C()

	st, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != zsimd.JobFailed || !strings.Contains(st.Error, "cell panic") {
		t.Fatalf("job = %s (%q), want failed with a cell panic", st.State, st.Error)
	}

	// The single worker survived the panic: a second job still gets
	// dequeued and judged (it fails the same way, but it *runs*).
	st2, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatal(err)
	}
	st2, err = c.WaitJob(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != zsimd.JobFailed {
		t.Fatalf("second job = %s, want the worker alive and failing it", st2.State)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health after panic = %+v, %v", h, err)
	}
}

// TestHugeBufferParamsRunWithoutHostBlowup: Validate accepts any positive
// store-buffer depth and finite-cache size, so a client can ask for 2^40
// of either. The simulator must size its host memory by what a run
// touches, not by those fields: each job finishes done and the daemon
// stays healthy (an out-of-memory error would kill the whole process).
func TestHugeBufferParamsRunWithoutHostBlowup(t *testing.T) {
	ctx := Ctx(t)
	c := SharedClient()
	for name, params := range map[string]string{
		"store-buffer": `{"Procs":4,"StoreBufEntries":1099511627776}`,
		"finite-cache": `{"Procs":4,"FiniteCache":true,"CacheLines":1099511627776,"CacheAssoc":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			st, res := SubmitAndWait(t, ctx, c, zsimd.CellSpec{Type: zsimd.TypeBenchmark,
				App: "is", System: "rcinv", Params: json.RawMessage(params)})
			if st.State != zsimd.JobDone || len(res.Cells) != 1 || len(res.Cells[0].Body) == 0 {
				t.Fatalf("job = %s (%q), result %+v; want done with one cell", st.State, st.Error, res)
			}
			if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
				t.Fatalf("health after the job = %+v, %v", h, err)
			}
		})
	}
}

// TestQueueSaturationRejects: with one worker held busy by a slow cell
// and a depth-1 queue holding one waiting job, the next submission must
// be rejected with 503 instead of queueing without bound.
func TestQueueSaturationRejects(t *testing.T) {
	ctx := Ctx(t)
	g := NewGroup(t, zsimd.Config{
		QueueDepth: 1,
		Workers:    1,
		Deps:       dependencies.SlowCell{},
		SlowCell:   time.Minute,
	})
	c := g.C()

	running, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, zsimd.JobRunning)

	queued, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatalf("depth-1 queue rejected its first waiting job: %v", err)
	}

	_, err = c.Submit(ctx, quickCell())
	if !client.IsQueueFull(err) {
		t.Fatalf("err = %v, want the 503 queue-full rejection", err)
	}

	// Cancel both jobs: the running one wakes from its injected sleep
	// immediately; the queued one is finalized when dequeued.
	for _, id := range []string{running.ID, queued.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := c.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != zsimd.JobCanceled {
			t.Fatalf("job %s = %s, want canceled", id, st.State)
		}
	}
}

// TestCancelRunningJob: cancelling a job mid-cell must end it promptly in
// the canceled state — the injected sleep honours the cancel channel, so
// the minute-long cell never runs to completion.
func TestCancelRunningJob(t *testing.T) {
	ctx := Ctx(t)
	g := NewGroup(t, zsimd.Config{Deps: dependencies.SlowCell{}, SlowCell: time.Minute})
	c := g.C()

	st, err := c.Submit(ctx, quickCell())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, zsimd.JobRunning)
	start := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != zsimd.JobCanceled {
		t.Fatalf("job = %s (%q), want canceled", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; the injected sleep ignored the cancel channel", elapsed)
	}
	// Cancelling a terminal job is a harmless no-op.
	if again, err := c.Cancel(ctx, st.ID); err != nil || again.State != zsimd.JobCanceled {
		t.Fatalf("re-cancel = %+v, %v", again, err)
	}
}
