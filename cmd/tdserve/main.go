// Command tdserve serves a trained TD-Magic model over HTTP: PNG timing
// diagrams in, SPO formal specifications out.
//
// Usage:
//
//	tdserve -model model.gob [-addr :8080] [-workers 4] [-queue 16]
//	        [-cache 256] [-timeout 30s] [-max-body 33554432] [-drain 30s]
//
// Endpoints:
//
//	POST /v1/translate        one PNG body -> SPO JSON + diagnostics
//	POST /v1/translate/batch  multipart/form-data PNG parts -> {"results": [...]},
//	                          one entry per part
//	POST /v1/verify           TD picture (or cached ref) + delays + VCD dump
//	                          -> NDJSON stream of per-constraint verdicts
//	POST   /v1/jobs              durable async job (with -jobs; multipart or manifest)
//	GET    /v1/jobs/{id}         job status; /results streams ordered NDJSON
//	GET    /v1/jobs/{id}/events  live NDJSON lifecycle stream (tdmagic -watch renders it)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET  /healthz             liveness probe
//	GET  /readyz              readiness probe (503 while draining or store unwritable)
//	GET  /metrics             Prometheus text metrics
//	GET  /version             build identity
//	GET  /debug/flight        flight-recorder dump (with -flight)
//	GET  /debug/pprof/*       runtime profiles
//
// Every request is tagged with an X-Request-ID (the client's, if sent) and
// logged as one structured JSON line on stderr; POST /v1/translate?debug=1
// returns the translation's per-stage span trace inline.
//
// With -flight N the server keeps a flight recorder: a bounded in-memory
// ring of the last N request traces and job lifecycle events, dumped by
// GET /debug/flight (filter with ?request_id=, ?name=, ?min_dur=). Any
// request whose root span exceeds -flight-slow is pinned past ring
// eviction, so the trace explaining a latency spike survives the traffic
// that follows it. Histogram exemplars in /metrics carry the request (or
// job) ID of the most recent observation per bucket, linking a spike in
// tdmagic_translate_seconds straight to its flight-recorder entry.
//
// The service runs a bounded worker pool: -workers translations execute
// concurrently, -queue more may wait, and anything beyond that is shed
// immediately with 429 + Retry-After. Identical pictures (by pixel
// content, not file bytes) are answered from an LRU cache. On SIGTERM or
// SIGINT the listener closes and in-flight requests drain gracefully for
// up to -drain before the process exits.
//
// With -jobs DIR (requires -store) the server additionally runs the
// durable job engine: submitted corpora are journaled under DIR, survive
// crashes and restarts (a restarted replica resumes every unfinished job,
// retranslating only items whose artifact never reached the store), and
// retry flaky items with capped backoff before quarantining them.
//
// Train a model first with tdtrain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/jobs"
	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
	"tdmagic/internal/serve"
	"tdmagic/internal/store"
	"tdmagic/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdserve: ")
	var (
		model       = flag.String("model", "", "trained model file from tdtrain (required)")
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", 0, "concurrent translations (0 = GOMAXPROCS, capped at 8)")
		queue       = flag.Int("queue", 0, "requests allowed to wait for a worker before 429 (0 = 4x workers)")
		cache       = flag.Int("cache", 256, "result-cache entries keyed by picture content (-1 disables)")
		storeDir    = flag.String("store", "", "persistent content-addressed artifact store behind the in-memory cache; survives restarts and is shared with tdmagic -batch")
		jobsDir     = flag.String("jobs", "", "durable job journal directory; enables the async /v1/jobs API (requires -store)")
		jobsRoot    = flag.String("jobs-manifest-root", "", "directory manifest-style job submissions may reference; empty restricts /v1/jobs to uploads")
		jobsWorkers = flag.Int("jobs-workers", 0, "concurrent job item translations (0 = GOMAXPROCS)")
		jobsRetries = flag.Int("jobs-attempts", 3, "attempts before an item is quarantined")
		jobsLease   = flag.Duration("jobs-lease", 30*time.Second, "item lease duration before a silent worker is presumed dead")
		jobsPause   = flag.Duration("jobs-throttle", 0, "pause before each job item attempt (rate limit)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request translation deadline")
		verifyTmo   = flag.Duration("verify-timeout", 60*time.Second, "per-request /v1/verify deadline (translation + streaming check)")
		maxBody     = flag.Int64("max-body", 32<<20, "largest accepted PNG body in bytes")
		maxVCD      = flag.Int64("max-vcd", 1<<30, "largest accepted VCD dump in bytes (streamed, so this bounds work, not memory)")
		maxJobBody  = flag.Int64("max-job-body", 256<<20, "largest accepted /v1/jobs multipart upload in bytes (the server's per-request memory exposure)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		quiet       = flag.Bool("quiet", false, "disable the per-request access log")
		intraW      = flag.Int("intra-workers", 1, "goroutines tiling the perception kernels within each picture (default 1: the worker pool already runs one picture per core; raise only on big machines serving single hot requests)")
		flightN     = flag.Int("flight", 256, "flight-recorder ring capacity in traces/events behind GET /debug/flight (0 disables)")
		flightSlow  = flag.Duration("flight-slow", time.Second, "root-span duration that pins a trace past flight-ring eviction")
		flightBytes = flag.Int("flight-bytes", 1<<20, "flight-recorder ring budget in estimated bytes")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	if *model == "" || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	pipe, err := core.LoadFile(*model)
	if err != nil {
		log.Fatal(err)
	}
	pipe.IntraWorkers = *intraW

	cfg := serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		Timeout:         *timeout,
		VerifyTimeout:   *verifyTmo,
		MaxBodyBytes:    *maxBody,
		MaxVCDBytes:     *maxVCD,
		MaxJobBodyBytes: *maxJobBody,
	}
	if *flightN > 0 {
		cfg.Flight = obs.NewRecorder(obs.RecorderConfig{
			MaxEntries: *flightN,
			MaxBytes:   *flightBytes,
			Slow:       *flightSlow,
		})
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = st
	}
	if !*quiet {
		cfg.Logger = obs.NewLogger(os.Stderr, nil)
	}
	if cfg.Registry == nil {
		// serve.New would create a private registry; build it here so the
		// store and job metrics land in the same exposition.
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Store != nil {
		cfg.Store.SetMetrics(store.NewMetrics(cfg.Registry))
	}
	if *jobsDir != "" {
		if cfg.Store == nil {
			log.Fatal("-jobs requires -store: the artifact store is what makes job resume incremental")
		}
		js, err := jobs.Open(*jobsDir, pipe, cfg.Store, jobs.Config{
			Workers:     *jobsWorkers,
			LeaseTTL:    *jobsLease,
			MaxAttempts: *jobsRetries,
			Timeout:     *timeout,
			Throttle:    *jobsPause,
			Flight:      cfg.Flight,
			Registry:    cfg.Registry,
			Logger:      cfg.Logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Jobs = js
		cfg.JobsManifestRoot = *jobsRoot
	}
	srv := serve.New(pipe, cfg)
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	// The bound address goes to stdout so scripts that asked for port 0
	// can discover the port.
	fmt.Printf("listening on %s\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop()

	log.Printf("shutting down: draining in-flight requests (up to %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained cleanly")
}
