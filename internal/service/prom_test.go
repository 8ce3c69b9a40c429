package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestPromFamiliesLint holds the full family set behind
// /metrics/prometheus (registry, SLO and runtime families) to Lint after
// traffic has filled the labelled counters and a route histogram.
func TestPromFamiliesLint(t *testing.T) {
	s := New(store.NewDatabase(), Config{})
	for _, path := range []string{"/v1/providers", "/v1/roots/nothex"} {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	s.metrics.cache.With("verdict_hits").Add(1)
	s.metrics.outcomes.With("ok").Add(1)
	fams := s.promFamilies()
	if problems := obs.Lint(fams); len(problems) != 0 {
		t.Fatalf("lint problems:\n%v", problems)
	}
	for _, f := range fams {
		if f.Name == promNamespace+"request_duration_seconds" && len(f.Samples) == 0 {
			t.Error("route histogram rendered no samples after traffic")
		}
	}
}
