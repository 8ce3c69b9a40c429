package service_test

// Golden capture of both metric endpoints. /metrics (expvar JSON) and
// /metrics/prometheus are pinned at two points: on a fresh server, and
// after a scripted sequence touching every counter family (verify, a batch
// with a rejected line, a simulate, a sweep, a 4xx and a swap). Every
// metric name, HELP/TYPE line, label set, counter value and key order is
// compared byte for byte; only values that vary with wall time are masked
// (see maskMetricsJSON and maskExposition).
//
// Regenerate with: go test ./internal/service -run TestMetricsGolden -update

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
)

func TestMetricsGolden(t *testing.T) {
	eco, _ := fixture(t)
	chain := goldenChain(t)
	srv := service.New(eco.DB, service.Config{})
	checkMetricsGolden(t, srv, "fresh")

	verify := map[string]any{"chain_pem": chain, "stores": []string{"NSS", "Debian"}, "at": "2020-11-15"}
	if code, out := postVerify(t, srv, verify); code != http.StatusOK {
		t.Fatalf("verify status = %d: %v", code, out)
	}
	good := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})
	if lines := postBatch(t, srv, good+"{not json\n"); len(lines) != 2 || lines[1].Error == "" {
		t.Fatalf("batch lines = %+v, want a verdict line and a rejected line", lines)
	}
	if res, out := postSimulate(t, srv, map[string]any{
		"kind":         "removal",
		"fingerprints": []string{symantecFingerprint(t)},
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d: %v", res.StatusCode, out)
	}
	if res := get(t, srv, "/v1/simulate/sweep", nil); res.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", res.StatusCode)
	}
	if res := get(t, srv, "/v1/roots/nothex", nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fingerprint status = %d", res.StatusCode)
	}
	srv.Swap(swapDB(t, "v2", 0, 1))
	checkMetricsGolden(t, srv, "after")
}

// checkMetricsGolden scrapes both endpoints and compares the masked bodies
// with testdata/metrics_golden/<point>.{json,prom}.
func checkMetricsGolden(t *testing.T, srv *service.Server, point string) {
	t.Helper()
	for _, ep := range []struct {
		path, ext string
		mask      func(string) string
	}{
		{"/metrics", "json", maskMetricsJSON},
		{"/metrics/prometheus", "prom", maskExposition},
	} {
		req := httptest.NewRequest(http.MethodGet, ep.path, nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s status = %d", ep.path, rec.Code)
		}
		raw, err := io.ReadAll(rec.Result().Body)
		if err != nil {
			t.Fatal(err)
		}
		got := ep.mask(string(raw))
		path := filepath.Join("testdata", "metrics_golden", point+"."+ep.ext)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v (run with -update to capture)", err)
		}
		if got != string(want) {
			t.Errorf("%s at %s differs from %s:\n%s", ep.path, point, path, firstDiff(string(want), got))
		}
	}
}

// firstDiff reports the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n  want " + w + "\n  got  " + g
		}
	}
	return "(no line differs)"
}

var (
	jsonTimeScalar = regexp.MustCompile(`("(?:uptime_seconds|simulate_sweep_build_ms)": )[^,}]+`)
	jsonLastReload = regexp.MustCompile(`("last_reload": )"[^"]*"`)
	jsonLag        = regexp.MustCompile(`"provider_lag_seconds": \{[^}]*\}`)
	jsonLagValue   = regexp.MustCompile(`:-?[0-9]+`)
	jsonLatency    = regexp.MustCompile(`("(?:sum_ms|p50_ms|p90_ms|p99_ms|p999_ms)":)[^,}]+`)
)

// maskMetricsJSON replaces the wall-time values of the /metrics JSON —
// uptime, the last sweep's build time, the last reload instant, provider
// lag and the latency sums and quantiles — with "<t>", keeping every key.
func maskMetricsJSON(s string) string {
	s = jsonTimeScalar.ReplaceAllString(s, "${1}<t>")
	s = jsonLastReload.ReplaceAllString(s, "${1}<t>")
	s = jsonLag.ReplaceAllStringFunc(s, func(m string) string { return jsonLagValue.ReplaceAllString(m, ":<t>") })
	return jsonLatency.ReplaceAllString(s, "${1}<t>")
}

// timeFamilies are the exposition series whose values vary with wall time.
var timeFamilies = map[string]bool{
	"trustd_uptime_seconds":                  true,
	"trustd_provider_lag_seconds":            true,
	"trustd_request_duration_seconds_bucket": true,
	"trustd_request_duration_seconds_sum":    true,
	"trustd_simulate_sweep_build_seconds":    true,
	"trustd_slo_burn_rate":                   true,
}

// maskExposition drops bucket exemplars (trace IDs are random) and
// replaces the values of timeFamilies and go_* series with "<t>". HELP and
// TYPE lines, names and label sets are kept verbatim.
func maskExposition(s string) string {
	lines := strings.SplitAfter(s, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.TrimSuffix(line, "\n")
		if j := strings.Index(line, " # {"); j >= 0 {
			line = line[:j]
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if timeFamilies[name] || strings.HasPrefix(name, "go_") {
			line = line[:strings.LastIndexByte(line, ' ')] + " <t>"
		}
		lines[i] = line + "\n"
	}
	return strings.Join(lines, "")
}
