package service

import (
	"net/http"

	"repro/internal/obs"
)

// promNamespace prefixes every family the server exports, so a Prometheus
// scraping several services can tell trustd's request counters apart.
const promNamespace = "trustd_"

// The event feed (tracker) may also implement StatsSource — reload
// durations, event counts. The server only type-asserts; it never
// requires the capability. Cluster origins/replicas register explicitly
// via AddStatsSource.

// handlePrometheus serves the metrics in the Prometheus text exposition
// format (0.0.4). Families are built at scrape time from the same
// registry /metrics serves as JSON, so the two endpoints can never
// disagree.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteExposition(w, s.promFamilies()); err != nil {
		s.log.Warn("write prometheus exposition", "err", err)
	}
}

// promFamilies assembles the full family set: the registry's metrics,
// SLO burn rates, tracker and cluster stats, and Go runtime health.
func (s *Server) promFamilies() []obs.MetricFamily {
	fams := append(s.metrics.Families(), s.sloFamilies()...)
	if sp, ok := s.events.(StatsSource); ok {
		fams = append(fams, sp.StatsFamilies(promNamespace)...)
	}
	for _, sp := range s.extraStats {
		fams = append(fams, sp.StatsFamilies(promNamespace)...)
	}
	return append(fams, obs.RuntimeFamilies()...)
}

// sloFamilies derives the trustd_slo_* families from the minute ring at
// scrape time: the SLO definitions as gauges (so alert rules can read
// targets off the exposition instead of hard-coding them) plus
// multi-window burn rates for the fast-burn/slow-burn alerting pair.
func (s *Server) sloFamilies() []obs.MetricFamily {
	burn := obs.MetricFamily{
		Name: promNamespace + "slo_burn_rate",
		Help: "Error-budget burn rate by SLO and window (1.0 = consuming budget exactly at the sustainable rate).",
		Type: obs.Gauge,
	}
	win := obs.MetricFamily{
		Name: promNamespace + "slo_window_requests",
		Help: "Requests observed in each burn-rate window.",
		Type: obs.Gauge,
	}
	for _, w := range sloWindows {
		avail, lat, req := s.metrics.slo.burnRates(w.minutes)
		burn.Samples = append(burn.Samples,
			obs.Sample{Labels: []obs.Label{{Name: "slo", Value: "availability"}, {Name: "window", Value: w.label}}, Value: avail},
			obs.Sample{Labels: []obs.Label{{Name: "slo", Value: "latency"}, {Name: "window", Value: w.label}}, Value: lat},
		)
		win.Samples = append(win.Samples,
			obs.Sample{Labels: []obs.Label{{Name: "window", Value: w.label}}, Value: float64(req)})
	}
	return []obs.MetricFamily{
		obs.GaugeFamily(promNamespace+"slo_availability_target", "Availability SLO: fraction of requests that must not be 5xx.", sloAvailabilityTarget),
		obs.GaugeFamily(promNamespace+"slo_latency_target", "Latency SLO: fraction of requests that must finish within the threshold.", sloLatencyTarget),
		obs.GaugeFamily(promNamespace+"slo_latency_threshold_seconds", "Latency SLO threshold.", sloLatencyThreshold.Seconds()),
		burn,
		win,
	}
}
