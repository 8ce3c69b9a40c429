package service

import (
	"expvar"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// statusClasses maps code/100 to its class key without formatting.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Metrics is the server's metric registry. Every metric is declared once,
// in newMetrics, with its /metrics JSON key, its Prometheus name, its help
// text and its kind; both endpoints render from the registry, and
// Value reads one metric by key (tests assert through it). Each Server
// owns a private registry rather than publishing process globals, so
// multiple servers (tests, embedded use) never collide on expvar names;
// cmd/trustd publishes Map under "trustd" for the standard /debug/vars
// view.
//
// The fields are the handles the recording sites hold, so recording a
// metric is one atomic add. Gauges that describe "now" — uptime,
// per-provider staleness — are computed at read time from the serving
// generation, so /debug/vars and long-lived servers that never reload
// still report the truth.
type Metrics struct {
	*obs.Registry

	requests, status, outcomes, cache, simEvents *obs.CounterVec

	// latency holds one HDR histogram per registered route, over the
	// shared obs.HDRBounds layout that cmd/loadgen buckets against on the
	// client side, so the two can be diffed per bucket.
	latency *obs.HDRVec

	inFlight, verified, rejected, errors, reloads, watchers           *expvar.Int
	batchBatches, batchLines, batchVerdicts, batchRejects, batchQueue *expvar.Int
	simSweeps, simSweepBuilds, simSweepPairs                          *expvar.Int
	simSweepBuildMs                                                   *expvar.Float
	lastLoad                                                          *expvar.String

	// slo feeds the scrape-time trustd_slo_* burn-rate families.
	slo *sloRing
}

// newMetrics declares every metric of the server. cur returns the serving
// generation, which the read-time gauges follow.
func newMetrics(cur func() *dbState, tracer *obs.Tracer) *Metrics {
	r := obs.NewRegistry(promNamespace)
	started := time.Now()
	m := &Metrics{
		Registry: r,
		requests: r.CounterVec("requests", "requests_total", "HTTP requests by route.", obs.Labeled("route")),
		status:   r.CounterVec("status", "responses_total", "HTTP responses by status class.", obs.Labeled("class")),
		outcomes: r.CounterVec("verify_outcomes", "verify_outcomes_total", "Per-store verify verdicts by outcome.", obs.Labeled("outcome")),
		cache:    r.CounterVec("cache", "cache_events_total", "Cache lookups by cache and result.", cacheLabels),
		latency:  r.HDRVec("latency_ms", "request_duration_seconds", "HTTP request latency by route (shared HDR log-linear buckets).", obs.Labeled("route")),
		inFlight: r.Gauge("in_flight", "in_flight_requests", "Requests currently being served."),
		verified: r.Counter("verdicts_total", "verdicts_total", "Per-store verdicts computed, including cache hits."),

		batchBatches:  r.Counter("batches_total", "batches_total", "Batch verify requests started."),
		batchLines:    r.Counter("batch_lines_total", "batch_lines_total", "NDJSON lines consumed by /v1/verify/batch."),
		batchVerdicts: r.Counter("batch_verdicts_total", "batch_verdicts_total", "Verdict rows streamed by /v1/verify/batch."),
		batchRejects:  r.Counter("batch_rejected_lines_total", "batch_rejected_lines_total", "Batch lines answered with a per-line error."),
		batchQueue:    r.Gauge("batch_queue_depth", "batch_queue_depth", "Batch jobs queued between reader and writer."),

		simEvents:       r.CounterVec("simulate_events", "simulate_events_total", "What-if events evaluated by kind.", obs.Labeled("kind")),
		simSweeps:       r.Counter("simulate_sweeps_total", "simulate_sweeps_total", "Sweep rankings served (cached or fresh)."),
		simSweepBuilds:  r.Counter("simulate_sweep_builds_total", "simulate_sweep_builds_total", "Sweep rankings computed (at most one per generation)."),
		simSweepPairs:   r.Gauge("simulate_sweep_pairs", "simulate_sweep_pairs", "Scenario pairs in the latest sweep ranking."),
		simSweepBuildMs: r.FloatGauge("simulate_sweep_build_ms", "simulate_sweep_build_seconds", "Wall time of the latest sweep ranking build.", 1e-3),

		rejected: r.Counter("rejected_total", "rejected_total", "Requests refused before verification (4xx)."),
		errors:   r.Counter("errors_total", "errors_total", "Responses that failed server-side (5xx)."),
		reloads:  r.Counter("reloads_total", "reloads_total", "Database hot swaps installed after startup."),
		watchers: r.Gauge("event_watchers", "event_watchers", "Live /v1/events/watch streams."),
		lastLoad: r.String("last_reload"),
		slo:      newSLORing(),
	}
	r.Func("uptime_seconds", "uptime_seconds", "Seconds since the server started.", obs.Gauge,
		func() float64 { return time.Since(started).Seconds() })
	r.FuncVec("provider_lag_seconds", "provider_lag_seconds", "Seconds since each provider's newest snapshot date.", obs.Gauge,
		obs.Labeled("provider"), func() map[string]float64 { return providerLag(cur().db) })
	r.FuncVec("provider_kinds", "provider_kinds", "Serving providers by ecosystem kind.", obs.Gauge,
		obs.Labeled("kind"), func() map[string]float64 { return providerKinds(cur().db) })
	r.Func("", "traces_started_total", "Request traces started.", obs.Counter,
		func() float64 { return float64(tracer.Started()) })
	r.Func("", "generation_epoch", "Cluster epoch of the serving generation.", obs.Gauge,
		func() float64 { return float64(cur().epoch) })
	return m
}

// cacheLabels splits cache counter keys like "verdict_hits" or
// "verifier_misses" into {cache="verdict",result="hit"} series.
func cacheLabels(key string) []obs.Label {
	cache, result := key, "other"
	if c, ok := strings.CutSuffix(key, "_hits"); ok {
		cache, result = c, "hit"
	} else if c, ok := strings.CutSuffix(key, "_misses"); ok {
		cache, result = c, "miss"
	}
	return []obs.Label{{Name: "cache", Value: cache}, {Name: "result", Value: result}}
}

// providerLag computes each provider's staleness — seconds between its
// latest snapshot date and now. It is computed on every read, so a
// provider whose gauge keeps growing is a store we have stopped receiving
// snapshots for (the live version of the paper's update-lag observation)
// even if the server never reloads again.
func providerLag(db *store.Database) map[string]float64 {
	out := map[string]float64{}
	now := time.Now()
	for _, name := range db.Providers() {
		h := db.History(name)
		if h == nil {
			continue
		}
		if latest := h.Latest(); latest != nil {
			out[name] = float64(now.Sub(latest.Date) / time.Second)
		}
	}
	return out
}

// providerKinds counts serving providers by ecosystem kind ("tls", "ct",
// "manifest").
func providerKinds(db *store.Database) map[string]float64 {
	out := map[string]float64{}
	for _, name := range db.Providers() {
		h := db.History(name)
		if h == nil {
			continue
		}
		if latest := h.Latest(); latest != nil {
			out[string(latest.Kind.Normalize())]++
		}
	}
	return out
}

// LatencySnapshot returns a route's HDR histogram snapshot, or the
// aggregate when route is "" (test hook).
func (m *Metrics) LatencySnapshot(route string) obs.HDRSnapshot { return m.latency.Snapshot(route) }

// SLOBurnRates returns the availability and latency burn rates over a
// window (test hook; minutes as in the exposed window labels).
func (m *Metrics) SLOBurnRates(minutes int64) (availability, latency float64, requests uint64) {
	return m.slo.burnRates(minutes)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher — the SSE watch endpoint streams through this wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// record counts one finished request: route, status class, refusal/error
// counters, the latency histograms (with the trace ID as a bucket
// exemplar, so the exposition links straight to /debug/traces) and the
// SLO ring.
func (m *Metrics) record(route string, code int, d time.Duration, trace obs.TraceID) {
	m.requests.Add(route, 1)
	if c := code / 100; c >= 0 && c < len(statusClasses) {
		m.status.Add(statusClasses[c], 1)
	} else {
		m.status.Add(fmt.Sprintf("%dxx", c), 1)
	}
	if code >= 400 && code < 500 {
		m.rejected.Add(1)
	}
	if code >= 500 {
		m.errors.Add(1)
	}
	m.latency.ObserveTrace(route, d, trace)
	m.slo.observe(code, d)
}

// handler serves the metric tree as JSON — the expvar wire format, scoped to
// this server's registry.
func (m *Metrics) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, m.Map().String())
	})
}
