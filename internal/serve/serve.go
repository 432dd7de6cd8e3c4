// Package serve exposes a trained TD-Magic pipeline as a concurrent HTTP
// translation service — the serving surface of the reproduction. One
// shared Pipeline (safe for concurrent Translate calls) sits behind a
// bounded worker pool with explicit backpressure, a content-addressed
// result cache, per-request translation deadlines and a metrics registry
// shared with the batch evaluation path.
//
// Endpoints:
//
//	POST /v1/translate        PNG body in, SPO JSON + diagnostics out
//	POST /v1/translate/batch  multipart/form-data of PNG files, {"results": [...]} out,
//	                          one entry per part
//	POST /v1/verify           TD picture (or cached ref) + delay bounds + VCD
//	                          dump in, NDJSON verdict stream out
//	POST   /v1/jobs              submit a durable async job (multipart or manifest)
//	GET    /v1/jobs/{id}         job status (?items=1 for per-item detail)
//	GET    /v1/jobs/{id}/results ordered NDJSON result stream (terminal jobs)
//	GET    /v1/jobs/{id}/events  live NDJSON lifecycle stream (snapshot, then tail)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET  /healthz             liveness + model summary
//	GET  /readyz              readiness: 503 while draining or store unwritable
//	GET  /metrics             Prometheus text exposition
//	GET  /version             build identity (module version, VCS revision)
//	GET  /debug/flight        flight-recorder dump of recent traces and events
//	GET  /debug/pprof/*       runtime profiles
//
// Observability: every request is tagged with an X-Request-ID (the
// client's, if sent, otherwise generated), echoed on the response and
// carried through the structured access log. POST /v1/translate?debug=1
// additionally runs the translation under a span trace and returns it
// inline in the response, correlating each pipeline stage's latency and
// detector counts with the request ID. With a flight recorder configured
// every translate and verify request runs under a trace that is captured
// into the bounded in-memory ring behind GET /debug/flight — filterable
// by request_id, root-span name and min_dur — with slow outliers pinned
// past ring eviction, so "what did that slow request do" stays
// answerable without a tracing backend.
//
// Backpressure model: at most Workers translations run at once; at most
// QueueDepth further requests wait for a slot. A request that would grow
// the wait queue beyond QueueDepth is rejected immediately with 429 and a
// Retry-After header — the service sheds load instead of accumulating an
// unbounded backlog. Batch parts are admitted part by part through the
// same gate, and one upload has at most Workers parts in it at once (and
// at most Workers+1 decoded), so one large batch cannot starve
// interactive traffic beyond the configured queue.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sync/atomic"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/diag"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/jobs"
	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
	"tdmagic/internal/store"
	"tdmagic/internal/version"
)

// Config tunes the service. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers bounds concurrently executing translations (<= 0 means
	// GOMAXPROCS, capped at 8).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// Workers in flight (<= 0 means 4x Workers). Overflow is answered
	// with 429 + Retry-After.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries, and that of
	// the raw index of upload byte hashes beside it (< 0 disables, 0
	// means 256).
	CacheSize int
	// Timeout is the per-request translation deadline enforced through
	// the pipeline's cooperative-cancellation plumbing (<= 0 means 30s).
	Timeout time.Duration
	// MaxBodyBytes caps an uploaded PNG (and each batch part); larger
	// bodies are refused with 400 (<= 0 means 32 MiB).
	MaxBodyBytes int64
	// MaxBatchParts caps the number of pictures in one batch request
	// (<= 0 means 64).
	MaxBatchParts int
	// MaxJobBodyBytes caps a whole /v1/jobs multipart upload. Job uploads
	// are held in memory until the submission is journaled, so this is
	// the server's memory exposure per job request (<= 0 means 256 MiB).
	MaxJobBodyBytes int64
	// VerifyTimeout is the per-request deadline of /v1/verify, covering
	// translation (or store lookup), property compilation and the full
	// streaming check (<= 0 means 60s). The decoder observes it between
	// events, so a deadline cuts an arbitrarily long dump off mid-stream.
	VerifyTimeout time.Duration
	// MaxVCDBytes caps the VCD part of a /v1/verify request. The dump is
	// streamed, never buffered, so this bounds work, not memory
	// (<= 0 means 1 GiB).
	MaxVCDBytes int64
	// Store, when non-nil, is a persistent content-addressed result store
	// shared with the batch engine (same artifact format, same config ×
	// input keying): it backs the in-memory LRU as a second cache level,
	// and every successful translation is written through to it, so a
	// serving fleet warms the same corpus cache that tdmagic -batch and
	// tdeval read.
	Store *store.Store
	// Jobs, when non-nil, mounts the durable async job API (/v1/jobs) over
	// this service; the job service should share Store and Registry so
	// interactive and corpus traffic warm one cache and one exposition.
	// Shutdown drains it after the HTTP listener.
	Jobs *jobs.Service
	// JobsManifestRoot, when non-empty, permits manifest-style job
	// submissions referencing picture files under this directory (paths are
	// resolved against it and must not escape it). Empty restricts /v1/jobs
	// to multipart uploads.
	JobsManifestRoot string
	// Flight, when non-nil, records every request's completed trace and
	// the job service's lifecycle events into a bounded in-memory ring,
	// served by GET /debug/flight. Nil disables recording (and the
	// endpoint answers 404); the disabled path adds no allocations to the
	// translate hot path.
	Flight *obs.Recorder
	// Registry receives the service and pipeline metrics; nil creates a
	// private registry.
	Registry *metrics.Registry
	// Logger receives one structured access-log line per request,
	// correlated by request ID. Nil disables access logging.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxBatchParts <= 0 {
		c.MaxBatchParts = 64
	}
	if c.MaxJobBodyBytes <= 0 {
		c.MaxJobBodyBytes = 256 << 20
	}
	if c.VerifyTimeout <= 0 {
		c.VerifyTimeout = 60 * time.Second
	}
	if c.MaxVCDBytes <= 0 {
		c.MaxVCDBytes = 1 << 30
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
}

// Server is the HTTP translation service. Create one with New, mount
// Handler on any http.Server (or use Start/Shutdown), and it is ready for
// concurrent traffic.
type Server struct {
	cfg      Config
	pipe     *core.Pipeline
	resolver *batch.Resolver // LRU → store → translate → persist
	sem      chan struct{}
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the request-ID/access-log middleware

	httpSrv  *http.Server
	listener net.Listener
	startMu  sync.Mutex
	draining atomic.Bool

	verifyMetrics *core.VerifyMetrics

	requests    *metrics.Counter
	verifyReqs  *metrics.Counter
	batchReqs   *metrics.Counter
	batchImages *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	storeHits   *metrics.Counter
	storePuts   *metrics.Counter
	rejections  *metrics.Counter
	badRequests *metrics.Counter
	inflight    *metrics.Gauge
	queued      *metrics.Gauge
}

// translateHook, when non-nil, runs inside every translation job after the
// worker slot is acquired. It is a test seam for pinning drain and
// backpressure behaviour with a deterministic slow translation.
var translateHook func()

// New builds a Server around a trained pipeline. The pipeline's Metrics
// field is populated from cfg.Registry (unless already set), so serving
// and batch counters share one exposition.
func New(pipe *core.Pipeline, cfg Config) *Server {
	cfg.applyDefaults()
	if pipe.Metrics == nil {
		pipe.Metrics = core.NewPipelineMetrics(cfg.Registry)
	}
	s := &Server{
		cfg:  cfg,
		pipe: pipe,
		// The config hash keying the store is fixed for the server's
		// lifetime (the pipeline is immutable once serving).
		resolver: batch.NewResolver(pipe, batch.Options{Store: cfg.Store, Config: pipe.ConfigHash(), Timeout: cfg.Timeout}, cfg.CacheSize),
		sem:      make(chan struct{}, cfg.Workers),

		requests:    cfg.Registry.Counter("tdserve_requests_total", "translate requests (single and batch items)"),
		verifyReqs:  cfg.Registry.Counter("tdserve_verify_requests_total", "verification requests"),
		batchReqs:   cfg.Registry.Counter("tdserve_batch_requests_total", "batch translate requests"),
		batchImages: cfg.Registry.Counter("tdserve_batch_images_total", "pictures received in batch requests"),
		cacheHits:   cfg.Registry.Counter("tdserve_cache_hits_total", "translations answered from the result cache"),
		cacheMisses: cfg.Registry.Counter("tdserve_cache_misses_total", "translations that missed the result cache"),
		storeHits:   cfg.Registry.Counter("tdserve_store_hits_total", "translations answered from the persistent artifact store"),
		storePuts:   cfg.Registry.Counter("tdserve_store_puts_total", "artifacts written through to the persistent store"),
		rejections:  cfg.Registry.Counter("tdserve_queue_rejections_total", "requests shed with 429 because the queue was full"),
		badRequests: cfg.Registry.Counter("tdserve_bad_requests_total", "requests refused with 400"),
		inflight:    cfg.Registry.Gauge("tdserve_inflight_translations", "translations currently executing"),
		queued:      cfg.Registry.Gauge("tdserve_queued_requests", "requests waiting for a worker slot"),
	}
	// The hit ratio is derived from the counters at scrape time, so it can
	// never drift from them.
	cfg.Registry.GaugeFunc("tdserve_cache_hit_ratio",
		"fraction of translations answered from the result cache", func() float64 {
			hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	s.verifyMetrics = core.NewVerifyMetrics(cfg.Registry)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/translate", s.handleTranslate)
	s.mux.HandleFunc("/v1/translate/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	if cfg.Jobs != nil {
		s.mux.HandleFunc("/v1/jobs", s.handleJobs)
		s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/version", s.handleVersion)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.handler = s.withRequestID(s.mux)
	return s
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// reqIDKey carries the request ID through a request's context.
type reqIDKey struct{}

// requestID returns the request's correlation ID ("" outside the
// middleware, which only happens in direct handler unit tests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// sanitizeRequestID accepts a client-proposed X-Request-ID if it is short
// and printable; anything else is replaced by a generated ID so log lines
// and response headers cannot be polluted.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// statusWriter records the status code written by a handler for the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// withRequestID tags every request with a correlation ID — the client's
// X-Request-ID when acceptable, otherwise generated — echoes it on the
// response, threads it through the request context, and emits one
// structured access-log line per request when a logger is configured.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String(obs.RequestIDKey, id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", time.Since(start)),
			)
		}
	})
}

// Registry returns the metrics registry the service records into.
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// in the background. The bound address is returned so callers that asked
// for a random port can find it.
func (s *Server) Start(addr string) (net.Addr, error) {
	s.startMu.Lock()
	defer s.startMu.Unlock()
	if s.listener != nil {
		return nil, errors.New("serve: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.handler}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown drains the service gracefully: /readyz flips to 503 (so a
// load balancer stops routing new traffic), the listener stops
// accepting, every in-flight request (including queued translations)
// runs to completion, and the job service — if one is mounted — stops
// dispatching, finishes its in-flight items and checkpoints every job's
// journal for an exact resume. ctx bounds the whole drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.startMu.Lock()
	srv := s.httpSrv
	s.startMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if s.cfg.Jobs != nil {
		if jerr := s.cfg.Jobs.Close(ctx); err == nil {
			err = jerr
		}
	}
	return err
}

// errQueueFull is returned by acquire when the wait queue is at capacity.
var errQueueFull = errors.New("serve: translation queue full")

// acquire claims a worker slot, waiting in the bounded queue if all
// workers are busy. It fails fast with errQueueFull when the queue is at
// capacity — the backpressure signal behind every 429.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return errQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// TranslateResponse is the success payload of /v1/translate: SPO graph,
// spec text and diagnostics. It is the batch engine's artifact format,
// field for field — the bytes this service serves are the bytes the
// persistent store holds, so the two share one cache without any
// translation layer.
type TranslateResponse = batch.Artifact

// ErrorResponse is the failure payload: a message plus the structured
// diagnostics that explain it, in the same shape the pipeline reports
// degradations everywhere else.
type ErrorResponse struct {
	Error string            `json:"error"`
	Diags []diag.Diagnostic `json:"diags,omitempty"`
}

// ItemResult is one picture's outcome in a batch response.
type ItemResult struct {
	// Name is the multipart part's file name.
	Name string `json:"name"`
	// Status is the HTTP status the picture would have received from the
	// single-translate endpoint.
	Status int `json:"status"`
	// Cached reports whether the result came from the content cache.
	Cached bool `json:"cached"`
	*TranslateResponse
	Error string            `json:"error,omitempty"`
	Diags []diag.Diagnostic `json:"diags,omitempty"`
}

// processResult is the outcome of one translation job.
type processResult struct {
	status    int
	body      []byte          // marshalled TranslateResponse or ErrorResponse
	art       *batch.Artifact // body decoded; nil on an LRU hit (see artifact)
	cached    bool
	inputHash string // hex content hash of the picture, "" on failure
}

// readUpload reads one picture upload off r and returns how to answer
// it — the shared front end of /v1/translate, each batch part and
// /v1/verify's image. A picture whose exact bytes the resolver knows is
// answered at once from the raw tier, without a decode; other bytes are
// decoded (the buffer is dropped then) and answered by process, which
// teaches the resolver the bytes. skipCache (?debug=1) bypasses every
// tier. The caller runs answer when ready for it; refusal is set instead
// when the upload is no admissible picture, and each surface words that
// answer its own way.
func (s *Server) readUpload(ctx context.Context, r io.Reader, skipCache bool) (answer func() processResult, refusal string) {
	u, refusal := s.readPicture(io.LimitReader(r, s.cfg.MaxBodyBytes+1))
	if refusal != "" {
		return nil, refusal
	}
	rawKey := store.HashBytes(u.raw)
	if !skipCache {
		if res, err := s.resolver.LookupRaw(rawKey); err == nil {
			s.requests.Inc()
			out := s.hit(ctx, res, true)
			return func() processResult { return out }, ""
		}
	}
	img, refusal := u.decode()
	if refusal != "" {
		return nil, refusal
	}
	return func() processResult { return s.process(ctx, img, rawKey, skipCache) }, ""
}

// process translates one decoded picture, whose encoded bytes hash to
// rawKey, through the resolver's LRU and store, the bounded worker pool
// and the per-request deadline, and teaches the resolver rawKey. skipCache
// bypasses the lookup (debug requests want to observe the pipeline
// stages, and a hit would record none); the result is still stored for
// later requests. Hits never take a worker slot.
func (s *Server) process(ctx context.Context, img *imgproc.Gray, rawKey store.Hash, skipCache bool) processResult {
	s.requests.Inc()
	key := store.HashImage(img)
	if !skipCache {
		if res, err := s.resolver.Lookup(key); err == nil {
			s.resolver.Learn(rawKey, res)
			return s.hit(ctx, res, false)
		}
	}
	if sp := obs.StartSpan(ctx, "cache"); sp != nil {
		sp.Bool("hit", false).Bool("skipped", skipCache)
		sp.End()
	}
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejections.Inc()
			return errorResult(http.StatusTooManyRequests, "translation queue full", nil)
		}
		return errorResult(statusForCtxErr(err), "request cancelled: "+err.Error(), nil)
	}
	// The slot bounds the translation and its store write; the alias
	// write after it holds no slot.
	res, err := func() (batch.Resolved, error) {
		defer s.release()
		s.inflight.Inc()
		defer s.inflight.Dec()
		if translateHook != nil {
			translateHook()
		}
		return s.resolver.Translate(ctx, key, img)
	}()
	if err != nil {
		msg := "translation failed"
		if errors.Is(err, context.DeadlineExceeded) {
			msg = fmt.Sprintf("translation exceeded the %v deadline", s.cfg.Timeout)
		}
		var ds []diag.Diagnostic
		if res.Rep != nil {
			ds = res.Rep.Diags
		}
		return errorResult(statusForCtxErr(err), msg, ds)
	}
	s.resolver.Learn(rawKey, res)
	if res.Stored {
		s.storePuts.Inc()
	}
	if !res.Refused {
		s.cacheMisses.Inc()
	}
	return s.answer(res)
}

// lookup answers key from the LRU or the store without translating; ok
// is false on a miss.
func (s *Server) lookup(ctx context.Context, key store.Hash) (processResult, bool) {
	res, err := s.resolver.Lookup(key)
	if err != nil {
		return processResult{}, false
	}
	return s.hit(ctx, res, false), true
}

// hit answers a resolved artifact from the LRU or the store, counting the
// tier that held it; raw reports that the raw tier found it.
func (s *Server) hit(ctx context.Context, res batch.Resolved, raw bool) processResult {
	if res.Tier == batch.TierStore {
		s.storeHits.Inc()
	} else {
		s.cacheHits.Inc()
	}
	if sp := obs.StartSpan(ctx, "cache"); sp != nil {
		sp.Bool("hit", true).Bool("store", res.Tier == batch.TierStore).Bool("raw", raw)
		sp.End()
	}
	return s.answer(res)
}

// answer turns a resolved artifact into a reply. An artifact that records
// an input refusal answers 400 with the body a cold translation sends,
// whichever tier held it.
func (s *Server) answer(res batch.Resolved) processResult {
	out := processResult{status: http.StatusOK, body: res.Body, art: res.Artifact,
		cached: res.Tier != batch.TierMiss, inputHash: res.Input.Hex()}
	if res.Refused {
		s.badRequests.Inc()
		refused := errorResult(http.StatusBadRequest, "picture refused", out.artifact().Diags)
		refused.cached = out.cached
		return refused
	}
	return out
}

// artifact returns the decoded artifact of a resolved result, decoding
// the body when an LRU hit carried only the bytes.
func (r processResult) artifact() *batch.Artifact {
	if r.art != nil {
		return r.art
	}
	a := new(batch.Artifact)
	// Cannot fail: the resolver marshalled or validated every body.
	_ = json.Unmarshal(r.body, a)
	return a
}

// statusForCtxErr maps a context/translation error to an HTTP status.
func statusForCtxErr(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// errorResult marshals an ErrorResponse into a processResult.
func errorResult(status int, msg string, ds []diag.Diagnostic) processResult {
	body, _ := json.Marshal(ErrorResponse{Error: msg, Diags: ds})
	return processResult{status: status, body: body}
}

// handleTranslate serves POST /v1/translate: a PNG body in, one SPO out.
// With ?debug=1 the translation runs under a span trace (bypassing the
// cache read so every stage actually executes) and the response carries
// the trace inline under "trace".
func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST a PNG body", nil)
		return
	}
	ctx := r.Context()
	debug := r.URL.Query().Get("debug") == "1"
	var tr *obs.Trace
	if debug || s.cfg.Flight != nil {
		// The flight recorder wants a trace for every request, not just
		// debug ones; only debug bypasses the cache read, so a recorded
		// cache hit is a one-span "cache" trace.
		tr = obs.NewTrace(requestID(r))
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	var answer func() processResult
	var refusal string
	if r.ContentLength > s.cfg.MaxBodyBytes {
		refusal = fmt.Sprintf("body of %d bytes exceeds the %d-byte limit", r.ContentLength, s.cfg.MaxBodyBytes)
	} else {
		answer, refusal = s.readUpload(ctx, r.Body, debug)
	}
	if refusal != "" {
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, refusal, []diag.Diagnostic{
			diag.New(diag.StageInput, diag.Error, "%s", refusal),
		})
		return
	}
	res := answer()
	// Capture before answering, errors and timeouts included — the slow
	// trace that exceeded the deadline is exactly the one worth pinning.
	s.cfg.Flight.Capture(tr)
	if debug && res.status == http.StatusOK {
		res = attachTrace(res, tr)
	}
	s.writeResult(w, res)
}

// handleFlight serves GET /debug/flight: a JSON dump of the flight
// recorder's recent traces and events, oldest first, with slow-pinned
// entries listed separately. Query parameters filter the dump:
// request_id (exact; job events carry the job ID here), name (root-span
// or event name), min_dur (Go duration, e.g. 250ms), limit (most recent
// N after filtering).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder disabled", nil)
		return
	}
	q := r.URL.Query()
	f := obs.FlightFilter{RequestID: q.Get("request_id"), Name: q.Get("name")}
	if v := q.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "min_dur: "+err.Error(), nil)
			return
		}
		f.MinDur = d
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "limit must be a non-negative integer", nil)
			return
		}
		f.Limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.cfg.Flight.Snapshot(f))
}

// attachTrace re-encodes a success body with the trace export appended.
// Runs only on ?debug=1 requests, so the second encode stays off the
// serving hot path.
func attachTrace(res processResult, tr *obs.Trace) processResult {
	body, err := json.Marshal(struct {
		TranslateResponse
		Trace *obs.Export `json:"trace"`
	}{*res.artifact(), tr.Export()})
	if err != nil {
		return res
	}
	return processResult{status: res.status, body: body, cached: res.cached}
}

// handleBatch serves POST /v1/translate/batch: multipart/form-data where
// every file part is one PNG. Parts stream off the wire one at a time,
// each through readUpload, the raw tier and size cap of a single request;
// every decoded part is answered through s.process, the LRU, store,
// admission gate and deadline of a single request, on at most Workers
// goroutines. The reader takes the next part only while those are busy,
// so at most Workers+1 decoded pictures are resident however many parts
// the upload carries. The response is {"results": [...]}, one entry per
// part, in part order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST multipart/form-data with PNG file parts", nil)
		return
	}
	s.batchReqs.Inc()
	mediaType, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mediaType != "multipart/form-data" {
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, "content type must be multipart/form-data", nil)
		return
	}
	ctx := r.Context()
	mr := multipart.NewReader(r.Body, params["boundary"])
	results := []*ItemResult{}
	slots := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	// abort is a terminal upload failure: once the parts already handed
	// out have finished, the whole batch is refused with 400.
	var abort string
parts:
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			abort = "read multipart body: " + err.Error()
			break
		}
		if len(results) == s.cfg.MaxBatchParts {
			part.Close()
			abort = fmt.Sprintf("batch exceeds %d pictures", s.cfg.MaxBatchParts)
			break
		}
		item := &ItemResult{Name: part.FileName()}
		if item.Name == "" {
			item.Name = part.FormName()
		}
		results = append(results, item)
		answer, refusal := s.readUpload(ctx, part, false)
		part.Close()
		if refusal != "" {
			item.Status, item.Error = http.StatusBadRequest, refusal
			item.Diags = []diag.Diagnostic{diag.New(diag.StageInput, diag.Error, "%s", refusal)}
			continue
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			break parts
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			*item = itemResultFrom(item.Name, answer())
			<-slots
		}()
	}
	wg.Wait()
	switch {
	case abort != "":
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, abort, nil)
	case ctx.Err() != nil:
		s.writeError(w, statusForCtxErr(ctx.Err()), "batch aborted: "+ctx.Err().Error(), nil)
	default:
		s.batchImages.Add(int64(len(results)))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Results []*ItemResult `json:"results"`
		}{results})
	}
}

// itemResultFrom converts a processResult into a batch item entry: the
// artifact on success, the decoded error body otherwise.
func itemResultFrom(name string, res processResult) ItemResult {
	item := ItemResult{Name: name, Status: res.status, Cached: res.cached}
	if res.status == http.StatusOK {
		item.TranslateResponse = res.artifact()
		return item
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.body, &er); err == nil {
		item.Error = er.Error
		item.Diags = er.Diags
	}
	return item
}

// handleHealthz serves the liveness probe: the process is up and the
// handler loop responsive. It deliberately stays 200 while draining —
// liveness restarts a dead replica, readiness routes traffic, and
// conflating them makes an orchestrator kill a replica that is merely
// finishing its queue.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","workers":%d,"queue_depth":%d,"cache_entries":%d}%s`,
		s.cfg.Workers, s.cfg.QueueDepth, s.resolver.LRULen(), "\n")
}

// handleReadyz serves the readiness probe: 503 while the replica is
// draining (so the balancer routes around a shutting-down instance) and
// 503 when the persistent store stops taking writes — a replica that can
// only recompute is a cache stampede waiting to happen.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.ProbeWritable(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"status": "store-unwritable", "error": err.Error(),
			})
			return
		}
	}
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// handleMetrics serves the text exposition of every registered metric,
// under the full Prometheus text-format content type (scrapers key on the
// charset parameter too).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Registry.WriteText(w)
}

// handleVersion serves the build identity.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(version.Get())
}

// writeResult writes a processResult, marking cache outcome and — on 429 —
// when to come back.
func (s *Server) writeResult(w http.ResponseWriter, res processResult) {
	w.Header().Set("Content-Type", "application/json")
	if res.cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if res.inputHash != "" {
		// The content address of the uploaded picture: pass it back as the
		// `ref` of a later /v1/verify call to skip re-uploading (and
		// re-translating) the image.
		w.Header().Set("X-Input-Hash", res.inputHash)
	}
	if res.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	if res.status == http.StatusOK {
		_, _ = w.Write([]byte("\n"))
	}
}

// retryAfterSeconds estimates when a queue slot will actually be free
// for the rejected caller: the wait queue must drain (queued+1 requests
// ahead of it across Workers slots, each turning over in roughly the
// observed mean translation latency) before a retry can be admitted.
// With no latency samples yet the per-item estimate falls back to the
// configured deadline — the pessimistic bound the old fixed hint used.
// The result is clamped to [1s, Timeout]: never "come back in 0s" under
// a momentary blip, never further out than one worst-case translation.
func (s *Server) retryAfterSeconds() string {
	per := s.cfg.Timeout.Seconds()
	if m := s.pipe.Metrics; m != nil && m.Latency != nil {
		if n := m.Latency.Count(); n > 0 {
			per = m.Latency.Sum() / float64(n)
		}
	}
	turns := (float64(s.queued.Value()+1) + float64(s.cfg.Workers) - 1) / float64(s.cfg.Workers)
	secs := int(math.Ceil(per * turns))
	if secs < 1 {
		secs = 1
	}
	if max := int(s.cfg.Timeout / time.Second); max >= 1 && secs > max {
		secs = max
	}
	return strconv.Itoa(secs)
}

// writeError writes an ErrorResponse with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, ds []diag.Diagnostic) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Diags: ds})
}

// pngMagic is the 8-byte PNG signature.
var pngMagic = [8]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// upload is one picture's encoded bytes as readPicture buffered them.
type upload struct {
	raw []byte
	err error // the transport error that cut the body short, if any
}

// readPicture reads one uploaded PNG off r, which the caller limits to
// MaxBodyBytes+1. The 24-byte magic + IHDR prefix is screened before
// anything is buffered, refusing adversarial "small file, enormous
// raster" bombs from the header alone; the rest is buffered, so the raw
// tier can answer known bytes before any decode.
func (s *Server) readPicture(r io.Reader) (upload, string) {
	head := make([]byte, 24)
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return upload{}, "body is not a PNG"
		}
		return upload{}, "read body: " + err.Error()
	}
	if [8]byte(head[:8]) != pngMagic {
		return upload{}, "body is not a PNG"
	}
	// IHDR is mandatory and first: width and height live at bytes 16-23.
	width := int64(binary.BigEndian.Uint32(head[16:20]))
	height := int64(binary.BigEndian.Uint32(head[20:24]))
	if width <= 0 || height <= 0 || width*height > core.MaxPixels {
		return upload{}, fmt.Sprintf("declared %dx%d raster exceeds the %d-pixel limit", width, height, core.MaxPixels)
	}
	buf := bytes.NewBuffer(head)
	_, err := buf.ReadFrom(r)
	if int64(buf.Len()) > s.cfg.MaxBodyBytes {
		return upload{}, fmt.Sprintf("body exceeds the %d-byte limit", s.cfg.MaxBodyBytes)
	}
	return upload{raw: buf.Bytes(), err: err}, ""
}

// decode decodes the upload as a decoder reading off the stream would
// have: a transport error surfaces only if the decoder reads that far.
func (u upload) decode() (*imgproc.Gray, string) {
	var r io.Reader = bytes.NewReader(u.raw)
	if u.err != nil {
		r = io.MultiReader(r, failReader{u.err})
	}
	img, err := imgproc.DecodePNG(r)
	if err != nil {
		return nil, "decode png: " + err.Error()
	}
	return img, ""
}

// failReader fails every read with err.
type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }
