package obs

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryViews declares one metric of each kind and checks that the
// JSON view, the exposition and Value agree.
func TestRegistryViews(t *testing.T) {
	r := NewRegistry("t_")
	hits := r.Counter("hits_total", "hits_total", "Hits.")
	depth := r.Gauge("depth", "queue_depth", "Queue depth.")
	build := r.FloatGauge("build_ms", "build_seconds", "Build time.", 1e-3)
	r.String("last").Set("now")
	byRoute := r.CounterVec("requests", "requests_total", "Requests by route.", Labeled("route"))
	r.Func("", "epoch", "Epoch.", Gauge, func() float64 { return 7 })
	r.FuncVec("lag", "lag_seconds", "Lag.", Gauge, Labeled("provider"), func() map[string]float64 { return map[string]float64{"NSS": 3} })
	lat := r.HDRVec("latency_ms", "duration_seconds", "Latency.", Labeled("route"))
	lat.Add("GET /a")
	lat.Add("GET /idle")

	hits.Add(2)
	depth.Add(-1)
	build.Set(1500)
	byRoute.With("GET /a").Add(1)
	lat.ObserveTrace("GET /a", 3*time.Millisecond, TraceID{})

	json := r.Map().String()
	for _, want := range []string{`"build_ms": 1500`, `"hits_total": 2`, `"last": "now"`, `"lag": {"NSS":3}`, `"requests": {"GET /a": 1}`, `"GET /idle":{"count":0`} {
		if !strings.Contains(json, want) {
			t.Errorf("JSON view %s lacks %s", json, want)
		}
	}
	if strings.Contains(json, "epoch") {
		t.Error("a metric declared without a key leaked into the JSON view")
	}

	fams := r.Families()
	if problems := Lint(fams); len(problems) != 0 {
		t.Fatalf("lint: %v", problems)
	}
	var sb strings.Builder
	if err := WriteExposition(&sb, fams); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"t_build_seconds 1.5\n", "t_epoch 7\n", "t_queue_depth -1\n", `t_lag_seconds{provider="NSS"} 3` + "\n",
		`t_requests_total{route="GET /a"} 1` + "\n", `t_duration_seconds_count{route="GET /a"} 1` + "\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "GET /idle") || strings.Contains(text, "last") {
		t.Errorf("exposition renders an idle series or a JSON-only value:\n%s", text)
	}

	for _, c := range []struct {
		key, sub string
		want     float64
		ok       bool
	}{
		{"hits_total", "", 2, true}, {"depth", "", -1, true}, {"build_ms", "", 1500, true},
		{"requests", "GET /a", 1, true}, {"requests", "GET /b", 0, false},
		{"lag", "NSS", 3, true}, {"lag", "Apple", 0, false}, {"epoch", "", 0, false}, {"latency_ms", "", 0, false},
	} {
		if got, ok := r.Value(c.key, c.sub); got != c.want || ok != c.ok {
			t.Errorf("Value(%q, %q) = %v, %v; want %v, %v", c.key, c.sub, got, ok, c.want, c.ok)
		}
	}
	if n := lat.Snapshot("").Count; n != 1 {
		t.Errorf("aggregate count = %d, want 1", n)
	}
}
