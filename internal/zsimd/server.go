package zsimd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"zsim/internal/metrics"
	"zsim/internal/runner"
)

// Config configures a daemon instance.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; a submission
	// past the bound is rejected with 503 rather than queued without
	// limit. 0 selects 16.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Each job's
	// cells additionally fan out on the runner worker pool (see
	// runner.SetParallelism). 0 selects 2.
	Workers int
	// Store is the content-addressed result store; nil selects an
	// in-memory store.
	Store Store
	// Deps is the fault-injection seam; nil selects ProdDependencies.
	Deps Dependencies
	// SlowCell stretches every cell by this delay before simulation when
	// the DisruptSlowCell fault fires (tests only).
	SlowCell time.Duration
}

// Server is the simulation-as-a-service daemon: an http.Handler serving
// the /v1 JSON API, plus the job table, bounded queue, and worker pool
// behind it.
type Server struct {
	cfg   Config
	store Store
	deps  Dependencies
	mux   *http.ServeMux
	queue chan *job

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool

	started time.Time
	wg      sync.WaitGroup
}

// errCanceled marks a cell aborted by job cancellation or daemon
// shutdown; runJob maps it to the canceled (not failed) terminal state.
var errCanceled = errors.New("zsimd: job canceled")

// New builds a Server and starts its job workers. Close must be called to
// release them.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Deps == nil {
		cfg.Deps = ProdDependencies{}
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		deps:    cfg.Deps,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting submissions, cancels every live job, and waits
// for the workers to drain. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		j.requestCancel()
	}
	close(s.queue)
	s.wg.Wait()
}

// --- job execution ---

// runJob executes one dequeued job: cache hits are served straight from
// the store, misses run on the runner worker pool, and a panicking cell
// (runner re-raises the smallest-index panic after the pool drains) fails
// the job without taking down the worker.
func (s *Server) runJob(j *job) {
	if !j.tryStart(time.Now()) {
		count("zsimd.jobs_canceled", 1)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			count("zsimd.jobs_failed", 1)
			j.finish(JobFailed, fmt.Sprintf("cell panic: %v", r), time.Now())
		}
	}()

	n := len(j.cells)
	bodies := make([][]byte, n)
	cached := make([]bool, n)
	var miss []int
	var hits int
	for i, c := range j.cells {
		body, ok, err := s.store.Get(c.key)
		if err == nil && ok {
			bodies[i] = body
			cached[i] = true
			hits++
			continue
		}
		// A store read error degrades to a re-simulation, not a failure.
		miss = append(miss, i)
	}
	count("zsimd.cache_hits", uint64(hits))
	count("zsimd.cache_misses", uint64(len(miss)))

	_, err := runner.Grid(len(miss), func(k int) (struct{}, error) {
		i := miss[k]
		if j.canceledRequested() {
			return struct{}{}, errCanceled
		}
		if s.deps.Disrupt(DisruptSlowCell) {
			s.deps.Sleep(s.cfg.SlowCell, j.cancel)
			if j.canceledRequested() {
				return struct{}{}, errCanceled
			}
		}
		if s.deps.Disrupt(DisruptWorkerPanic) {
			panic("zsimd: injected worker panic")
		}
		body, err := simulate(j.cells[i])
		if err != nil {
			return struct{}{}, err
		}
		if s.deps.Disrupt(DisruptStoreWrite) {
			return struct{}{}, fmt.Errorf("zsimd: store write %.12s: injected write failure", j.cells[i].key)
		}
		if err := s.store.Put(j.cells[i].key, body); err != nil {
			return struct{}{}, fmt.Errorf("zsimd: store write %.12s: %w", j.cells[i].key, err)
		}
		bodies[i] = body
		return struct{}{}, nil
	})

	j.mu.Lock()
	j.hits, j.misses = hits, len(miss)
	j.bodies, j.cached = bodies, cached
	j.mu.Unlock()

	switch {
	case errors.Is(err, errCanceled):
		count("zsimd.jobs_canceled", 1)
		j.finish(JobCanceled, "", time.Now())
	case err != nil:
		count("zsimd.jobs_failed", 1)
		j.finish(JobFailed, err.Error(), time.Now())
	default:
		count("zsimd.jobs_done", 1)
		j.finish(JobDone, "", time.Now())
	}
}

// count adds n to a named daemon counter in the global aggregate when
// metrics are enabled.
func count(name string, n uint64) {
	if metrics.Enabled() {
		metrics.Default.Add(name, n)
	}
}

// --- HTTP handlers ---

// SubmitRequest is the POST /v1/jobs body: one job of one or more cells.
type SubmitRequest struct {
	Cells []CellSpec `json:"cells"`
}

// apiError is the error envelope for every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad submit body: " + err.Error()})
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad submit body: trailing data"})
		return
	}
	if len(req.Cells) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "submit: no cells"})
		return
	}
	cells := make([]cell, len(req.Cells))
	for i, spec := range req.Cells {
		c, err := resolve(spec)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("cell %d: %v", i, err)})
			return
		}
		cells[i] = c
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "daemon shutting down"})
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), cells, time.Now())
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
	default:
		s.nextID--
		s.mu.Unlock()
		count("zsimd.jobs_rejected", 1)
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{Error: fmt.Sprintf("job queue full (%d queued); retry later", cap(s.queue))})
		return
	}
	count("zsimd.jobs_submitted", 1)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no job %q", id)})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	res, ok := j.result()
	if !ok {
		st := j.status()
		msg := fmt.Sprintf("job %s is %s, not done", st.ID, st.State)
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeJSON(w, http.StatusConflict, apiError{Error: msg})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// Health is the GET /v1/health body: daemon liveness, job-table and
// queue occupancy, store size, and the global metrics snapshot.
type Health struct {
	Status       string           `json:"status"`
	UptimeMS     int64            `json:"uptime_ms"`
	Jobs         map[string]int   `json:"jobs"`
	QueueLen     int              `json:"queue_len"`
	QueueCap     int              `json:"queue_cap"`
	StoreEntries int              `json:"store_entries"`
	CodeVersion  string           `json:"code_version"`
	Metrics      metrics.Snapshot `json:"metrics"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[string(j.status().State)]++
	}
	queued := len(s.queue)
	s.mu.Unlock()
	entries, err := s.store.Len()
	if err != nil {
		entries = -1
	}
	writeJSON(w, http.StatusOK, Health{
		Status:       "ok",
		UptimeMS:     time.Since(s.started).Milliseconds(),
		Jobs:         counts,
		QueueLen:     queued,
		QueueCap:     cap(s.queue),
		StoreEntries: entries,
		CodeVersion:  CodeVersion,
		Metrics:      metrics.Default.Snapshot(),
	})
}

// writeJSON writes v as the complete JSON response. The body is marshaled
// before any byte is written so an encode error can still become a 500;
// a failed write means the client went away, which is not a daemon error.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data)
}
