// Command spatialjoind is the spatial join daemon: a long-lived HTTP service
// over the TRANSFORMERS index catalog. Datasets are uploaded (or generated
// server-side) and indexed once; joins, distance joins and range queries then
// run against the built indexes, with result caching, bounded join
// concurrency, and streaming NDJSON output for large pair sets.
//
// Usage:
//
//	spatialjoind -addr :8080
//	spatialjoind -addr :8080 -join-workers 4 -cache-entries 256
//
// Endpoints (all request/response bodies are JSON):
//
//	POST /datasets       upload {"name","elements":[...]} or generate
//	                     {"name","generate":{"kind","n","seed"}}; builds the index,
//	                     and restarts the planner's walls on the dataset
//	POST /datasets/{name}/append
//	                     land {"elements":[...]} in the dataset's delta buffer:
//	                     visible to joins immediately (no rebuild), compacted
//	                     into the main index by a background merge once the
//	                     delta exceeds -delta-max-elements
//	POST /join           {"a","b","algorithm"?,"stream"?,"include_pairs"?}
//	                     algorithm: a served engine — transformers (the
//	                     dataset's index) or inmem (the pair's resident
//	                     partition) — or "auto" (the planner picks the one
//	                     that measured the lower kernel wall on the pair; the
//	                     response reports the choice and the ranked prices);
//	                     any other name is a 400
//	POST /join/distance  same plus "distance": d (Chebyshev, §VIII)
//	POST /query/range    {"dataset","box":{"lo":[x,y,z],"hi":[x,y,z]},"stream"?};
//	                     appended elements included
//	GET  /healthz        liveness; "degraded" with reasons while a tenant
//	                     queue sheds or a dataset's delta merge is failing
//	GET  /stats          catalog / cache / pool / per-tenant counters
//	GET  /metrics        Prometheus-style text exposition: latency histograms,
//	                     queue/utilization gauges, per-tenant shed counters,
//	                     cache hit ratios, runtime gauges
//	GET  /debug/joins    ring of slow joins (-slow-join-ms; negative = all)
//	                     with their full request span trees
//	GET  /debug/planner  the wall table the planner prices engines by: each
//	                     (pair, distance, engine) series' price and samples
//
// Joins are traced end to end (admission wait, planning, catalog access,
// engine execution, stream emission); send X-Trace: 1 or "trace": true to
// get the span tree back in the response or NDJSON trailer. Every response
// carries X-Request-ID (honored from the request when present). -debug-addr
// serves net/http/pprof on a separate listener, kept off the serving port;
// heap allocations are sampled only when it is set.
//
// The daemon paces its collector against the catalog (Service.PaceGC): after
// each collection the next heap goal is the live heap plus max(4 MiB, live −
// the bytes the catalog holds), never above what GOGC alone would set, so
// memory is the resident data plus a working set's headroom, not twice the
// data. GOGC=off turns the collector, and the pacing, off.
//
// Every request may carry an X-Tenant header (admission control bills the
// request to that tenant's fair share; X-Priority: batch selects the batch
// lane) and a "timeout_ms" body field (deadline; the join aborts
// cooperatively on expiry). Overloaded tenants get 429, global saturation
// 503, expired deadlines 504.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish (bounded by -shutdown-timeout), new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxIndexes := flag.Int("max-indexes", 0, "max resident inmem pair partitions kept before LRU eviction (0 = default); a dataset's index lives as long as the dataset")
	cacheEntries := flag.Int("cache-entries", 0, "join result cache entries (0 = default)")
	cacheMaxPairs := flag.Int("cache-max-pairs", 0, "largest result size the cache stores (0 = default)")
	joinWorkers := flag.Int("join-workers", 0, "max joins and index builds executing at once, each on one slot (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", server.DefaultMaxQueue, "max queued joins before 503 (0 = default, negative = unbounded; use 1 for near-immediate backpressure)")
	defaultAlgo := flag.String("default-algorithm", "",
		"engine for joins that do not name one: "+strings.Join(server.ServedEngines(), ", ")+
			", or auto (planner; default transformers)")
	maxGenerate := flag.Int("max-generate", 0, "largest server-side generated dataset (0 = default 5M elements)")
	maxBody := flag.Int64("max-body-bytes", 0, "largest accepted request body (0 = default 256MB)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	tenantSlots := flag.Int("tenant-slots", 0, "max joins and builds one tenant executes at once while others wait (0 = no per-tenant cap)")
	tenantQueue := flag.Int("tenant-queue", 0, "max queued requests per tenant before 429 (0 = no per-tenant cap)")
	defaultTimeout := flag.Duration("default-timeout", 0, "default per-request deadline when a request sets no timeout_ms (0 = none)")
	slowJoinMS := flag.Int64("slow-join-ms", server.DefaultSlowJoinThreshold.Milliseconds(), "joins slower than this land in /debug/joins with their span tree (negative = record every join)")
	deltaMax := flag.Int("delta-max-elements", 0, "append-delta size that triggers a background merge into the main index (0 = default 8192, negative = never merge automatically)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty = disabled; heap allocations are sampled for /debug/pprof/heap only when set)")
	flag.Parse()
	if *debugAddr == "" {
		// Nobody can read a heap profile, so take no samples: each sampled
		// call stack lands in the runtime's 1.4 MB profiling bucket table
		// and makes one more of its pages resident.
		runtime.MemProfileRate = 0
	}

	if *defaultAlgo != "" {
		if err := server.CheckAlgorithm(*defaultAlgo); err != nil {
			log.Fatalf("-default-algorithm: %v", err)
		}
	}

	cfg := server.Config{
		MaxIndexes:          *maxIndexes,
		CacheEntries:        *cacheEntries,
		CacheMaxPairs:       *cacheMaxPairs,
		Workers:             *joinWorkers,
		MaxQueue:            *maxQueue,
		MaxGenerateElements: *maxGenerate,
		MaxBodyBytes:        *maxBody,
		DefaultAlgorithm:    *defaultAlgo,
		TenantSlots:         *tenantSlots,
		TenantQueue:         *tenantQueue,
		DefaultTimeout:      *defaultTimeout,
		DeltaMaxElements:    *deltaMax,
	}
	if *slowJoinMS < 0 {
		cfg.SlowJoinThreshold = -1 // record every join in /debug/joins
	} else {
		cfg.SlowJoinThreshold = time.Duration(*slowJoinMS) * time.Millisecond
	}
	svc := server.NewService(cfg)
	// The GC's headroom scales with the working set, not with the datasets
	// the catalog holds: see Service.PaceGC.
	defer svc.PaceGC()()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// reachable through the serving port. A fresh mux (not the default
		// one) keeps the surface to exactly the pprof handlers.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof debug listener on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dsrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("spatialjoind listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down (grace %v)", *shutdownTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
	log.Printf("bye")
}
