package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/interp"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/progcache"
)

// Config sizes a Server. Zero values take the defaults below.
type Config struct {
	// Models maps model name to a trained vector model; at least one is
	// required.
	Models map[string]ml.Model
	// Embedding is the vector embedding used to featurize source-bearing
	// requests (default "histogram"). Must match what the models were
	// trained on.
	Embedding string
	// Lineage optionally records where each boot model's snapshot sits in a
	// retraining chain (ml.LoadLineage); surfaced in /healthz so a fleet's
	// checkpoint ancestry is traceable. Missing entries read as the zero
	// (root) lineage.
	Lineage map[string]ml.Lineage
	// MaxInFlight bounds admitted requests; beyond it the server answers
	// 429 instead of queueing without limit.
	MaxInFlight int
	// MaxBatch and BatchWindow shape the micro-batching queue: a batch
	// closes when it reaches MaxBatch vectors or BatchWindow after its
	// first arrival, whichever comes first.
	MaxBatch    int
	BatchWindow time.Duration
	// RequestTimeout is the per-request deadline; work still pending when
	// it expires answers 504.
	RequestTimeout time.Duration
	// Engine names the engine that executes /v1/transform requests asking
	// for execution: "vm" (the default) or "tree", the reference
	// interpreter. Resolved at construction so a typo fails fast.
	Engine string
}

const (
	defaultMaxInFlight    = 128
	defaultMaxBatch       = 32
	defaultBatchWindow    = 2 * time.Millisecond
	defaultRequestTimeout = 10 * time.Second
	maxBodyBytes          = 1 << 20
	// maxSnapshotBytes bounds a pushed model snapshot; trained forests are
	// far bigger than request bodies, so PUT /v1/models gets its own cap.
	maxSnapshotBytes = 64 << 20

	// StatusClientClosedRequest is nginx's 499: the client went away before
	// the answer was ready. Nobody receives it, but the access log and the
	// error counters should not claim a server-side timeout (504) for a
	// failure the client caused.
	StatusClientClosedRequest = 499
)

// statusError carries an explicit HTTP status through the handler error
// path, so guard does not have to guess one from the error text.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// statusForError maps a handler error to its HTTP status. Unlike the old
// mapping — which reported 504 whenever ctx.Err() was non-nil, even when
// the cause was a client disconnect or a plain bad request that happened to
// lose a race with the deadline — it inspects the error chain itself:
// explicit statusError first, then deadline-exceeded (504) vs canceled
// (499), and 400 only for genuine request errors.
func statusForError(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// Server serves classification and transformation verdicts over HTTP. The
// request path is: drain barrier (503 once shutdown begins) → admission
// semaphore (429 on overload) → per-request deadline and panic isolation →
// handler → per-model micro-batcher.
type Server struct {
	cfg     Config
	admit   chan struct{}
	barrier *DrainBarrier
	mux     *http.ServeMux
	httpSrv *http.Server
	// cache holds the compiles of client-supplied sources. It is bounded
	// and private to this server: arbitrary traffic must not grow the
	// pinned progcache.Default without limit.
	cache *progcache.Cache
	// engine is cfg.Engine resolved.
	engine interp.Engine

	// mu guards the model table: names (sorted), batchers and versions all
	// change together when a snapshot push hot-swaps or adds a model.
	mu       sync.RWMutex
	names    []string
	batchers map[string]*batcher
	versions map[string]int64
	lineage  map[string]ml.Lineage

	requests *obs.Counter
	rejected *obs.Counter
	errors   *obs.Counter
	inflight *obs.Gauge
	swaps    *obs.Counter
}

// New validates cfg, applies defaults and builds a Server with one batcher
// goroutine per model.
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	if cfg.Embedding == "" {
		cfg.Embedding = "histogram"
	}
	emb, err := embed.Get(cfg.Embedding)
	if err != nil {
		return nil, err
	}
	if emb.Kind != embed.VectorKind {
		return nil, fmt.Errorf("serve: embedding %q is graph-shaped; the server takes vector embeddings", cfg.Embedding)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = defaultBatchWindow
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	if cfg.Engine == "" {
		cfg.Engine = "vm"
	}
	engine, err := core.EngineByName(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		engine:   engine,
		batchers: make(map[string]*batcher, len(cfg.Models)),
		versions: make(map[string]int64, len(cfg.Models)),
		lineage:  make(map[string]ml.Lineage, len(cfg.Models)),
		admit:    make(chan struct{}, cfg.MaxInFlight),
		barrier:  NewDrainBarrier(),
		mux:      http.NewServeMux(),
		cache:    progcache.New(progcache.DefaultUntrustedCap),
		requests: obs.GetCounter("serve.requests"),
		rejected: obs.GetCounter("serve.rejected"),
		errors:   obs.GetCounter("serve.errors"),
		inflight: obs.GetGauge("serve.inflight"),
		swaps:    obs.GetCounter("serve.model_swaps"),
	}
	for name, m := range cfg.Models {
		if m == nil {
			return nil, fmt.Errorf("serve: model %q is nil", name)
		}
		s.names = append(s.names, name)
		s.batchers[name] = newBatcher(name, m, cfg.MaxBatch, cfg.BatchWindow)
		s.versions[name] = 1
		if lin, ok := cfg.Lineage[name]; ok {
			s.lineage[name] = lin
		}
	}
	sort.Strings(s.names)
	s.mux.Handle("POST /v1/classify", s.guard("classify", s.handleClassify))
	s.mux.Handle("POST /v1/transform", s.guard("transform", s.handleTransform))
	s.mux.Handle("PUT /v1/models/{model}", s.guard("model_put", s.handleModelPut))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	return s, nil
}

// Handler exposes the full route table (for tests via httptest and for
// embedding in other servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background,
// returning the bound address. Pair with Shutdown.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server: new work is refused (healthz flips to 503,
// classify/transform answer 503), in-flight handlers run to completion
// within ctx's budget, and only then do the batchers flush and stop. The
// barrier — not httpSrv.Shutdown, which is a no-op on the Handler() path
// and returns early when ctx expires — is what orders batcher close after
// the handlers; any handler still running past the budget finds closed
// batchers that answer 503 instead of panicking.
func (s *Server) Shutdown(ctx context.Context) error {
	s.barrier.BeginDrain()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	drainErr := s.barrier.Drain(ctx)
	s.mu.RLock()
	bs := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.mu.RUnlock()
	for _, b := range bs {
		b.close()
	}
	if err == nil {
		err = drainErr
	}
	return err
}

// guard wraps a handler with the shared request discipline: drain barrier,
// admission control, in-flight accounting, the per-request deadline,
// latency observation and panic isolation.
func (s *Server) guard(op string, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	lat := obs.GetHistogram("serve.latency." + op)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if !s.barrier.Enter() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		defer s.barrier.Exit()
		select {
		case s.admit <- struct{}{}:
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		defer func() { <-s.admit }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		defer func() { lat.Observe(time.Since(start)) }()
		defer func() {
			if rec := recover(); rec != nil {
				s.errors.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("panic: %v", rec))
			}
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if err := h(w, r.WithContext(ctx)); err != nil {
			s.errors.Add(1)
			writeError(w, statusForError(err), err.Error())
		}
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) error {
	var req ClassifyRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	var vec []float64
	switch {
	case req.Source != "" && req.Histogram != nil:
		return fmt.Errorf("request carries both source and histogram; send one")
	case req.Source != "":
		v, err := core.EmbedSource(s.cache, req.Source, s.cfg.Embedding)
		if err != nil {
			return err
		}
		vec = v
	case len(req.Histogram) > 0:
		vec = req.Histogram
	default:
		return fmt.Errorf("request needs source or histogram")
	}
	verdicts, batches, err := s.classify(r.Context(), vec, req.Models)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, ClassifyResponse{Verdicts: verdicts, BatchSizes: batches})
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) error {
	var req TransformRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.Source == "" {
		return fmt.Errorf("request needs source")
	}
	var (
		irText string
		vec    []float64
		exec   *core.ExecObs
		err    error
	)
	if req.Execute {
		irText, vec, exec, err = core.TransformEmbedRun(s.cache, req.Source, req.Evader, s.cfg.Embedding, req.Seed, s.engine)
	} else {
		irText, vec, err = core.TransformEmbed(s.cache, req.Source, req.Evader, s.cfg.Embedding, req.Seed)
	}
	if err != nil {
		return err
	}
	verdicts, batches, err := s.classify(r.Context(), vec, req.Models)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, TransformResponse{IR: irText, Verdicts: verdicts, BatchSizes: batches, Exec: exec})
}

// handleModelPut hot-swaps (or adds) a model from a pushed snapshot without
// dropping in-flight requests: batches already collected finish on the old
// snapshot, everything after the swap predicts with the new one. The
// response carries the model's new version, monotonically increasing from 1
// at boot.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("model")
	if name == "" {
		return fmt.Errorf("model name missing from path")
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	m, lin, err := ml.LoadLineage(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("bad snapshot: %w", err)
	}
	s.mu.Lock()
	if b, ok := s.batchers[name]; ok {
		b.swap(m)
	} else {
		s.batchers[name] = newBatcher(name, m, s.cfg.MaxBatch, s.cfg.BatchWindow)
		s.names = append(s.names, name)
		sort.Strings(s.names)
	}
	s.versions[name]++
	s.lineage[name] = lin
	version := s.versions[name]
	s.mu.Unlock()
	s.swaps.Add(1)
	return writeJSON(w, http.StatusOK, ModelPutResponse{Model: name, Version: version, Lineage: lin})
}

// classify fans one vector out to the requested models' batchers (all
// enqueued before any wait, so the models batch concurrently) and collects
// the verdicts. Asking for a model that is not loaded is a 404, not a bad
// request: the request was well-formed, the resource does not exist here.
func (s *Server) classify(ctx context.Context, vec []float64, models []string) (map[string]int, map[string]int, error) {
	s.mu.RLock()
	if len(models) == 0 {
		models = append([]string(nil), s.names...)
	}
	bs := make([]*batcher, len(models))
	for i, name := range models {
		b, ok := s.batchers[name]
		if !ok {
			err := &statusError{
				status: http.StatusNotFound,
				msg:    fmt.Sprintf("model %q is not loaded (have %v)", name, s.names),
			}
			s.mu.RUnlock()
			return nil, nil, err
		}
		bs[i] = b
	}
	s.mu.RUnlock()
	calls := make([]*predictCall, len(models))
	for i := range models {
		calls[i] = &predictCall{vec: vec, done: make(chan struct{})}
		if err := bs[i].enqueue(ctx, calls[i]); err != nil {
			return nil, nil, err
		}
	}
	verdicts := make(map[string]int, len(models))
	batches := make(map[string]int, len(models))
	for i, name := range models {
		if err := bs[i].wait(ctx, calls[i]); err != nil {
			return nil, nil, err
		}
		verdicts[name] = calls[i].class
		batches[name] = calls[i].batch
	}
	return verdicts, batches, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := append([]string(nil), s.names...)
	versions := make(map[string]int64, len(s.versions))
	for k, v := range s.versions {
		versions[k] = v
	}
	var lineage map[string]ml.Lineage
	if len(s.lineage) > 0 {
		lineage = make(map[string]ml.Lineage, len(s.lineage))
		for k, v := range s.lineage {
			lineage[k] = v
		}
	}
	s.mu.RUnlock()
	resp := HealthResponse{
		Status:    "ok",
		Models:    names,
		Versions:  versions,
		Lineage:   lineage,
		Embedding: s.cfg.Embedding,
		InFlight:  s.inflight.Value(),
	}
	status := http.StatusOK
	if s.barrier.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	_ = writeJSON(w, status, resp)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	_ = writeJSON(w, http.StatusOK, obs.Capture())
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, err = w.Write(buf)
	return err
}

func writeError(w http.ResponseWriter, status int, msg string) {
	_ = writeJSON(w, status, ErrorResponse{Error: msg})
}
