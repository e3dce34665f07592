// Command smaload is the load generator for smaserve: it fires concurrent
// POST /v1/track requests with synthetic PGM frame pairs and reports
// latency percentiles, throughput, and error/rejection counts. With
// -verify it also tracks the same pair locally and requires every
// response to be bit-identical to the offline tracker.
//
// Usage:
//
//	smaload -url http://127.0.0.1:8080 -n 64 -c 8
//	smaload -url http://127.0.0.1:8080 -n 32 -c 8 -size 48 -verify -check-metrics
//	smaload -url http://127.0.0.1:8080 -bench-out BENCH_serve.json
//	smaload -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 -n 64 -c 8
//
// With -nodes the run fans requests round-robin over several servers
// (the workers of a cluster, or coordinators) and reports per-node
// latency percentiles and retry/rejection splits alongside the
// aggregate.
//
// Exit status is non-zero if any request errored or any verified response
// mismatched; backpressure rejections (429/503) are reported separately
// and are not errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sma/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smaload: ")
	var (
		url          = flag.String("url", "http://127.0.0.1:8080", "smaserve base URL")
		nodes        = flag.String("nodes", "", "comma-separated base URLs for multi-node mode (overrides -url)")
		n            = flag.Int("n", 32, "total requests")
		c            = flag.Int("c", 8, "concurrent clients")
		scene        = flag.String("scene", "hurricane", "synthetic scene: hurricane|thunderstorm|shear")
		size         = flag.Int("size", 64, "synthetic frame edge in pixels")
		seed         = flag.Int64("seed", 7, "synthetic scene seed")
		binary       = flag.Bool("binary", false, "request the binary motion-field framing")
		verify       = flag.Bool("verify", false, "verify every response is bit-identical to a local sequential track")
		robust       = flag.Bool("robust", false, "enable Huber-robust motion solve")
		timeout      = flag.Duration("timeout", 5*time.Minute, "overall run deadline")
		checkMetrics = flag.Bool("check-metrics", false, "scrape /metrics afterwards and require it to count the completed tracks")
		benchOut     = flag.String("bench-out", "", "write the load result as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	var nodeURLs []string
	for _, u := range strings.Split(*nodes, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			nodeURLs = append(nodeURLs, u)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := server.RunLoad(ctx, server.LoadOptions{
		URL:         strings.TrimRight(*url, "/"),
		Nodes:       nodeURLs,
		Requests:    *n,
		Concurrency: *c,
		Scene:       *scene,
		Size:        *size,
		Seed:        *seed,
		Binary:      *binary,
		Verify:      *verify,
		Robust:      *robust,
	})
	if err != nil {
		log.Fatalf("load run: %v", err)
	}

	fmt.Printf("requests     %d (concurrency %d)\n", res.Requests, res.Concurrency)
	fmt.Printf("errors       %d\n", res.Errors)
	fmt.Printf("retried      %d (backpressure 429/503, retried after Retry-After)\n", res.Retries)
	fmt.Printf("rejected     %d (gave up while still pushed back)\n", res.Rejected)
	if *verify {
		fmt.Printf("mismatches   %d (bit-identity vs local track)\n", res.Mismatches)
	}
	fmt.Printf("elapsed      %.2fs (%.1f req/s)\n", res.ElapsedSec, res.Throughput)
	fmt.Printf("latency      p50 %v  p90 %v  p99 %v  max %v\n", res.P50, res.P90, res.P99, res.MaxLatency)
	for _, nl := range res.PerNode {
		fmt.Printf("node %-28s %d req (%d ok, %d err, %d retried, %d rejected)  p50 %.1fms  p90 %.1fms  p99 %.1fms  %.1f req/s\n",
			nl.URL, nl.Requests, nl.Completed, nl.Errors, nl.Retries, nl.Rejected,
			nl.P50Ms, nl.P90Ms, nl.P99Ms, nl.Throughput)
	}
	for _, e := range res.ErrorSample {
		fmt.Printf("error sample %s\n", e)
	}

	if *benchOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("encoding result: %v", err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *benchOut, err)
		}
		log.Printf("wrote %s", *benchOut)
	}

	if *checkMetrics {
		completed := res.Requests - res.Errors - res.Rejected
		if err := checkMetricsScrape(ctx, strings.TrimRight(*url, "/"), completed); err != nil {
			log.Fatalf("metrics check: %v", err)
		}
		log.Printf("metrics scrape ok")
	}

	if res.Errors > 0 || res.Mismatches > 0 {
		os.Exit(1)
	}
}

// checkMetricsScrape requires base's /metrics to parse, to carry the
// work and pool families, and to have counted at least the completed
// /v1/track requests of this run.
func checkMetricsScrape(ctx context.Context, base string, completed int) error {
	samples, err := server.JobClient{URL: base}.Scrape(ctx)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var tracks float64
	for _, s := range samples {
		seen[s.Name] = true
		if s.Name == "smaserve_http_requests_total" && s.Labels["route"] == "/v1/track" {
			tracks += s.Value
		}
	}
	for _, family := range []string{"smaserve_pairs_tracked_total", "smaserve_worker_pool_size"} {
		if !seen[family] {
			return fmt.Errorf("scrape missing %s", family)
		}
	}
	if tracks < float64(completed) {
		return fmt.Errorf("scrape counted %g /v1/track requests, run completed %d", tracks, completed)
	}
	return nil
}
