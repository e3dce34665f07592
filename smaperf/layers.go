package main

import (
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/maspar"
)

// namedUnit is a metric name with its unit.
type namedUnit struct{ name, unit string }

// perLayer lists the traced run's metrics in BENCHMARK.json order. Times
// are mean self time per pair unless README.md says otherwise.
var perLayer = []namedUnit{
	{"core.prepare_ms", "ms"},
	{"core.semimap_ms", "ms"},
	{"core.semimap_bytes", "bytes"},
	{"core.search_ms", "ms"},
	{"core.hyp_per_px", "count"},
	{"core.ns_per_hyp", "ns"},
	{"core.pyramid_fallback_frac", "fraction"},
	{"core.prepare_share", "fraction"},
	{"core.semimap_share", "fraction"},
	{"core.search_share", "fraction"},
	{"model.prepare_share", "fraction"},
	{"model.semimap_share", "fraction"},
	{"model.search_share", "fraction"},
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.retries", "per100ops"},
	{"stream.run_ms", "ms"},
	{"stream.overhead_ms", "ms"},
	{"stream.fit_reuse_frac", "fraction"},
	{"synth.render_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"journal.bytes_per_pair", "bytes"},
	{"store.put_field_ms", "ms"},
	{"store.result_read_ms", "ms"},
	{"cluster.shard_ms", "ms"},
	{"cluster.worker_busy_frac", "fraction"},
	{"cluster.coord_overhead_ms", "ms"},
	{"cluster.shards_per_job", "count"},
	{"cluster.dispatch_retries", "count"},
	{"bench.calib_ms", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}

// exactCounters are the per-layer values that are counts, not times: two
// traced runs with the same seed must agree on them exactly.
var exactCounters = []string{
	"core.semimap_bytes",
	"core.hyp_per_px",
	"core.pyramid_fallback_frac",
	"stream.fit_reuse_frac",
	"journal.bytes_per_pair",
	"cluster.shards_per_job",
	"cluster.dispatch_retries",
}

// clusterWorkers is the cluster-pyramid worker count.
const clusterWorkers = 2

// layerInputs is everything a traced run measured.
type layerInputs struct {
	w                     workload
	size                  int // frame edge in pixels
	plain, traced, direct *phase
	httpSpans             []Span
	directSpans           []Span
	journalBytes          int64
	journalPairs          int64
}

// compute derives the per-layer metrics; the second map holds the exact
// counters.
func (in layerInputs) compute() (map[string]float64, map[string]float64, error) {
	v := make(map[string]float64, len(perLayer))

	// Direct phase: the benchmark's own spans around public calls.
	dSelf := selfByName(in.directSpans)
	pairsD := float64(max(in.direct.pairs, 1))
	per := func(name string) float64 { return ms(dSelf[name]) / pairsD }
	for _, n := range []string{"core.prepare", "core.semimap", "core.search", "server.decode", "server.encode",
		"journal.append", "store.put_field", "synth.render", "stream.run"} {
		v[n+"_ms"] = per(n)
	}
	c := in.w.counts()
	if c.pixels > 0 {
		v["core.hyp_per_px"] = float64(c.hyps) / float64(c.pixels)
		v["core.pyramid_fallback_frac"] = float64(c.fallbackPixels) / float64(c.pixels)
		v["core.semimap_bytes"] = float64(c.semimapBytes) / float64(c.pairs)
		v["core.ns_per_hyp"] = float64(dSelf["core.search"]) / float64(c.hyps)
	}
	if fits := c.fitsComputed + c.fitsReused; fits > 0 {
		v["stream.fit_reuse_frac"] = float64(c.fitsReused) / float64(fits)
	}
	if in.journalPairs > 0 {
		v["journal.bytes_per_pair"] = float64(in.journalBytes) / float64(in.journalPairs)
	}
	compute := v["core.prepare_ms"] + v["core.semimap_ms"] + v["core.search_ms"]
	if v["stream.run_ms"] > 0 {
		v["stream.overhead_ms"] = v["stream.run_ms"] - compute
	}
	if compute > 0 {
		v["core.prepare_share"] = v["core.prepare_ms"] / compute
		v["core.semimap_share"] = v["core.semimap_ms"] / compute
		v["core.search_share"] = v["core.search_ms"] / compute
	}
	model, err := modelShares(in.w.params(), in.size)
	if err != nil {
		return nil, nil, err
	}
	v["model.prepare_share"], v["model.semimap_share"], v["model.search_share"] = model[0], model[1], model[2]

	// Traced phase: spans around the handlers and the client calls.
	hSelf := selfByName(in.httpSpans)
	pairsH := float64(max(in.traced.pairs, 1))
	v["server.handler_ms"] = ms(hSelf["server.handler"]) / pairsH
	v["server.wire_ms"] = ms(hSelf["client.http"]+hSelf["store.result_read"]) / pairsH
	var readDur, shardDur time.Duration
	shardsByJob := map[string][]Span{}
	for _, s := range in.httpSpans {
		switch s.Name {
		case "store.result_read":
			readDur += s.Dur()
		case "cluster.shard":
			shardDur += s.Dur()
			shardsByJob[s.Key] = append(shardsByJob[s.Key], s)
		}
	}
	v["store.result_read_ms"] = ms(readDur) / pairsH
	v["cluster.shard_ms"] = ms(shardDur) / pairsH
	inside := 0.0
	for _, n := range in.w.handlerStages() {
		inside += v[n+"_ms"]
	}
	v["server.overhead_ms"] = v["server.handler_ms"] - inside
	if sent := in.plain.sent + in.traced.sent; sent > 0 {
		v["server.retries"] = 100 * float64(in.plain.retries+in.traced.retries) / float64(sent)
	}
	var jobs int
	for _, s := range in.httpSpans {
		shards := shardsByJob[s.Key]
		if s.Name != "op" || s.Key == "" || len(shards) == 0 || s.Dur() == 0 {
			continue
		}
		var busy time.Duration
		for _, sh := range shards {
			busy += sh.Dur()
		}
		jobs++
		v["cluster.worker_busy_frac"] += float64(busy) / float64(clusterWorkers*s.Dur())
		v["cluster.coord_overhead_ms"] += ms(s.Dur() - unionDur(shards))
	}
	if jobs > 0 {
		v["cluster.worker_busy_frac"] /= float64(jobs)
		v["cluster.coord_overhead_ms"] /= float64(jobs)
	}
	if in.traced.ok > 0 {
		v["cluster.shards_per_job"] = float64(in.traced.shards) / float64(in.traced.ok)
		v["cluster.dispatch_retries"] = float64(in.traced.dispatchRetr) / float64(in.traced.ok)
	}
	if in.plain.rate > 0 {
		v["bench.trace_overhead_frac"] = 1 - in.traced.rate/in.plain.rate
	}
	v["failed_frac"] = frac(in.plain.failed+in.traced.failed+in.direct.failed, in.plain.sent+in.traced.sent+in.direct.sent)

	counters := make(map[string]float64, len(exactCounters))
	for _, n := range exactCounters {
		counters[n] = v[n]
	}
	return v, counters, nil
}

// selfByName sums span self times by span name.
func selfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// modelShares returns the prepare (surface fit plus geometric variables),
// semi-fluid mapping and hypothesis-matching shares of the MP-2 cost
// model's StageTimes for p on a side×side monocular pair.
func modelShares(p core.Params, side int) ([3]float64, error) {
	var out [3]float64
	m, err := maspar.New(maspar.DefaultConfig())
	if err != nil {
		return out, err
	}
	g0, g1 := grid.New(side, side), grid.New(side, side)
	st, _, err := core.ModelRun(m, side, side, p, core.FitPasses(core.Monocular(g0, g1), p), maspar.RasterReadout)
	if err != nil {
		return out, err
	}
	tot := float64(st.Total())
	if tot == 0 {
		return out, nil
	}
	out[0] = float64(st.SurfaceFit+st.GeomVars) / tot
	out[1] = float64(st.SemiMap) / tot
	out[2] = float64(st.HypMatch) / tot
	return out, nil
}
