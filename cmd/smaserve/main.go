// Command smaserve runs the SMA motion-tracking HTTP service: synchronous
// pair tracking (POST /v1/track), asynchronous multi-frame jobs on the
// streaming pipeline (POST /v1/jobs), SVG rendering of stored results,
// and the operational endpoints /healthz, /readyz and /metrics.
//
// Usage:
//
//	smaserve -addr :8080
//	smaserve -addr 127.0.0.1:0 -port-file /tmp/smaserve.port -workers 4
//
// The same binary also runs the distributed job plane (docs/CLUSTER.md):
//
//	smaserve -worker -addr :8081                 # worker: full API + shard endpoint
//	smaserve -coordinator -worker-urls http://h1:8081,http://h2:8081
//
// A coordinator accepts the identical /v1/jobs API, splits each job into
// contiguous pair-range shards, dispatches them to the workers, and
// merges the per-pair streams bit-identically to a single node.
//
// With -data-dir the job plane is durable: job state goes through a
// write-ahead journal and result bytes live on disk, and a restart over
// the same directory restores finished jobs and resumes interrupted ones
// from their last checkpoint — bit-identical to an uninterrupted run
// (docs/ROBUSTNESS.md):
//
//	smaserve -data-dir /var/lib/smaserve
//	smaserve -coordinator -worker-urls ... -data-dir /var/lib/smaserve
//
// The server drains gracefully on SIGINT/SIGTERM: readiness flips to 503,
// listeners close, queued and in-flight tracking work runs to completion
// (bounded by -drain-timeout), then the process exits 0. Jobs still
// queued when a durable server drains are checkpointed pending and
// resume on the next start. See docs/SERVER.md for the API and serving
// model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sma/internal/cluster"
	"sma/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smaserve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		portFile     = flag.String("port-file", "", "write the bound port to this file once listening (for scripts)")
		workers      = flag.Int("workers", 0, "tracking worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue bound (0 = 2×workers)")
		maxBody      = flag.Int64("max-body-bytes", 0, "request body cap in bytes (0 = 32 MiB)")
		trackTimeout = flag.Duration("track-timeout", 0, "synchronous track deadline (0 = 60s)")
		jobTimeout   = flag.Duration("job-timeout", 0, "asynchronous job deadline (0 = 10m)")
		resultTTL    = flag.Duration("result-ttl", 0, "how long finished results stay retrievable (0 = 15m)")
		maxFrames    = flag.Int("max-frames", 0, "job sequence length cap (0 = 512)")
		maxPixels    = flag.Int("max-pixels", 0, "frame area cap in pixels (0 = 2048²)")
		rowWorkers   = flag.Int("row-workers", 0, "per-pair row parallelism (0 = GOMAXPROCS / -workers, at least 1; shard requests on a -worker node use GOMAXPROCS; pin to 1 for scaling studies)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain bound")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")
		dataDir      = flag.String("data-dir", "", "durable job plane directory: journal job state and result bytes here, and resume interrupted jobs on restart (empty = in-memory only)")

		coordinator    = flag.Bool("coordinator", false, "run as a cluster coordinator (requires -worker-urls)")
		workerMode     = flag.Bool("worker", false, "run as a cluster worker: full API plus the internal shard endpoint")
		workerURLs     = flag.String("worker-urls", "", "comma-separated worker base URLs for -coordinator")
		shardPairs     = flag.Int("shard-pairs", 0, "pairs per shard when sharding jobs (0 = 8)")
		healthInterval = flag.Duration("health-interval", 0, "worker heartbeat probe interval (0 = 1s)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *coordinator && *workerMode {
		log.Fatalf("-coordinator and -worker are mutually exclusive")
	}

	var (
		handler  http.Handler
		shutdown func(context.Context) error
	)
	if *coordinator {
		urls := splitURLs(*workerURLs)
		if len(urls) == 0 {
			log.Fatalf("-coordinator needs -worker-urls")
		}
		co, err := cluster.New(cluster.Config{
			Workers:        urls,
			ShardPairs:     *shardPairs,
			JobTimeout:     *jobTimeout,
			ResultTTL:      *resultTTL,
			MaxFrames:      *maxFrames,
			MaxPixels:      *maxPixels,
			HealthInterval: *healthInterval,
			DataDir:        *dataDir,
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		coCtx, coCancel := context.WithCancel(context.Background())
		defer coCancel()
		if *dataDir != "" {
			rs, err := co.Recover(coCtx)
			if err != nil {
				log.Fatalf("coordinator recovery: %v", err)
			}
			log.Printf("recovered %s: %d restored, %d resumed, %d orphan dirs swept (journal: %d records, %d bytes repaired)",
				*dataDir, rs.Restored, rs.Resumed, rs.OrphanDirs, rs.Journal.Records, rs.Journal.TruncatedBytes)
		}
		co.Start(coCtx)
		log.Printf("coordinator over %d workers: %s", len(urls), strings.Join(urls, ", "))
		handler = co.Handler()
		shutdown = co.Shutdown
	} else {
		srv, err := server.Open(server.Config{
			Workers:      *workers,
			QueueDepth:   *queueDepth,
			MaxBodyBytes: *maxBody,
			TrackTimeout: *trackTimeout,
			JobTimeout:   *jobTimeout,
			ResultTTL:    *resultTTL,
			MaxFrames:    *maxFrames,
			MaxPixels:    *maxPixels,
			RowWorkers:   *rowWorkers,
			DataDir:      *dataDir,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		if *dataDir != "" {
			rs, err := srv.Recover(context.Background())
			if err != nil {
				log.Fatalf("recovery: %v", err)
			}
			log.Printf("recovered %s: %d restored, %d resumed, %d orphan dirs swept (journal: %d records, %d bytes repaired)",
				*dataDir, rs.Restored, rs.Resumed, rs.OrphanDirs, rs.Journal.Records, rs.Journal.TruncatedBytes)
		}
		handler = srv.Handler()
		shutdown = srv.Shutdown
		if *workerMode {
			wk := cluster.NewWorker(cluster.WorkerConfig{
				Concurrency: *workers,
				RowWorkers:  *rowWorkers,
				MaxPixels:   *maxPixels,
				Logf:        log.Printf,
			})
			mux := http.NewServeMux()
			mux.Handle("POST "+cluster.ShardPath, wk)
			mux.Handle("/", handler)
			handler = mux
			log.Printf("worker mode: shard endpoint mounted at %s", cluster.ShardPath)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			log.Fatalf("writing port file: %v", err)
		}
	}
	log.Printf("listening on %s", ln.Addr())

	// Profiling is opt-in and served on its own listener so the debug
	// surface never shares a port with the public API. The import above
	// registers the /debug/pprof/* handlers on http.DefaultServeMux; the
	// main handler uses its own mux and is unaffected.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen %s: %v", *pprofAddr, err)
		}
		log.Printf("pprof listening on %s", pln.Addr())
		//smavet:allow goleak -- debug server is process-lifetime by design; Serve only returns at exit
		go func() {
			psrv := &http.Server{ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s; draining", s)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := shutdown(ctx); err != nil {
		log.Printf("drain exceeded %v; in-flight work aborted: %v", *drainTimeout, err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("drained; bye")
}

// splitURLs parses a comma-separated URL list, trimming blanks and
// trailing slashes.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}
