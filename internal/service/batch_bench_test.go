package service_test

// Performance guards for the verdict engine and the batch pipeline:
// BenchmarkVerifyBatch measures per-verdict cost and allocations on the warm
// (verdict-cache-hit) path, TestBatchThroughputSpeedup holds a 1k-line NDJSON
// batch to minBatchSpeedup over the same chains looped through /v1/verify,
// and TestBatchWarmAllocs/TestVerifyWarmAllocs hold both endpoints' warm
// paths to allocation budgets.

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	trustroots "repro"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// benchChains mints n distinct leaf chains (distinct CNs, so distinct chain
// hashes) from a CA trusted in the 2020 NSS snapshot.
func benchChains(tb testing.TB, eco *synth.Ecosystem, n int) []string {
	tb.Helper()
	nssSnap := eco.DB.History(trustroots.NSS).At(ts(2020, 9, 15))
	var ca *synth.CA
	for _, e := range nssSnap.Entries() {
		if c := eco.Universe.Lookup(e.Label); c != nil {
			if _, distrusted := e.DistrustAfterFor(store.ServerAuth); !distrusted {
				ca = c
				break
			}
		}
	}
	if ca == nil {
		tb.Fatal("no usable CA in NSS snapshot")
	}
	chains := make([]string, n)
	for i := range chains {
		der, err := trustroots.IssueLeaf(ca, fmt.Sprintf("host-%03d.bench.test", i),
			ts(2020, 1, 1), ts(2022, 1, 1))
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: der}); err != nil {
			tb.Fatal(err)
		}
		chains[i] = buf.String()
	}
	return chains
}

// ndjsonBody builds an NDJSON batch cycling the chains across count lines.
// useDER selects the chain_der input form (base64 DER, the bulk-throughput
// format) over chain_pem.
func ndjsonBody(tb testing.TB, chains []string, stores []string, count int, useDER bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < count; i++ {
		line := map[string]any{
			"at": "2020-11-15",
		}
		if len(stores) > 0 {
			line["stores"] = stores
		}
		chain := chains[i%len(chains)]
		if useDER {
			line["chain_der"] = derChain(tb, chain)
		} else {
			line["chain_pem"] = chain
		}
		raw, err := json.Marshal(line)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// discardWriter is a flushable ResponseWriter that throws the body away, so
// benchmarks measure the pipeline rather than httptest's body accumulation.
type discardWriter struct {
	h     http.Header
	lines int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Flush()              {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func runBatch(tb testing.TB, srv *service.Server, body []byte) int {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify/batch", bytes.NewReader(body))
	dw := &discardWriter{h: http.Header{}}
	srv.Handler().ServeHTTP(dw, req)
	return dw.lines
}

// BenchmarkVerifyBatch measures the warm batch path with chain_der input:
// every line hits the verdict cache across all ten stores, so the reported
// allocs/verdict is the pipeline's own overhead (line decode amortized over
// ten verdicts).
func BenchmarkVerifyBatch(b *testing.B) {
	benchVerifyBatch(b, true)
}

// BenchmarkVerifyBatchPEM is the same measurement over chain_pem lines —
// the convenience format pays a JSON unescape plus a PEM decode per line.
func BenchmarkVerifyBatchPEM(b *testing.B) {
	benchVerifyBatch(b, false)
}

func benchVerifyBatch(b *testing.B, useDER bool) {
	eco, srv := fixture(b)
	var all []string
	for _, p := range eco.DB.Providers() {
		all = append(all, p)
	}
	const lines = 256
	body := ndjsonBody(b, benchChains(b, eco, 8), all, lines, useDER)
	if got := runBatch(b, srv, body); got != lines { // warm the verdict cache
		b.Fatalf("warmup produced %d lines, want %d", got, lines)
	}
	verdictsPerLine := len(all)

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, srv, body)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	verdicts := float64(b.N) * lines * float64(verdictsPerLine)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/verdicts, "allocs/verdict")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/verdicts, "ns/verdict")
}

// TestBatchThroughputSpeedup is the CI guard for the batch endpoint's reason
// to exist: 1000 chains through one NDJSON batch must run at least
// minBatchSpeedup times faster than the same 1000 chains looped through the
// single-verify endpoint, both paths warm.
func TestBatchThroughputSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector; CI bench-smoke runs it uninstrumented")
	}
	eco, srv := fixture(t)
	chains := benchChains(t, eco, 8)
	// No stores filter: both paths fan out to every provider, the natural
	// corpus-scan query shape.
	const lines = 1000
	body := ndjsonBody(t, chains, nil, lines, true)

	singleReqs := make([][]byte, len(chains))
	for i, c := range chains {
		raw, err := json.Marshal(map[string]any{"chain_pem": c, "at": "2020-11-15"})
		if err != nil {
			t.Fatal(err)
		}
		singleReqs[i] = raw
	}
	runSingles := func() {
		for i := 0; i < lines; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/verify",
				bytes.NewReader(singleReqs[i%len(singleReqs)]))
			dw := &discardWriter{h: http.Header{}}
			srv.Handler().ServeHTTP(dw, req)
		}
	}

	// Warm both paths (verdict cache, route caches, verifier pools).
	runSingles()
	if got := runBatch(t, srv, body); got != lines {
		t.Fatalf("warmup batch produced %d lines, want %d", got, lines)
	}

	// Best-of-rounds on both sides: the guard measures the pipelines, not
	// whatever else the CI runner happened to schedule mid-round. A round
	// times batchReps batches, so both sides are timed over windows of
	// about the same length (~20 ms); ten rounds take under a second.
	const rounds = 10
	const batchReps = 4
	var singleNs, batchNs int64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		runSingles()
		if ns := time.Since(start).Nanoseconds(); r == 0 || ns < singleNs {
			singleNs = ns
		}

		start = time.Now()
		for k := 0; k < batchReps; k++ {
			if got := runBatch(t, srv, body); got != lines {
				t.Fatalf("round %d batch produced %d lines, want %d", r, got, lines)
			}
		}
		if ns := time.Since(start).Nanoseconds() / batchReps; r == 0 || ns < batchNs {
			batchNs = ns
		}
	}
	speedup := float64(singleNs) / float64(batchNs)
	t.Logf("single: %.1fms/1k  batch: %.1fms/1k  speedup: %.1fx",
		float64(singleNs)/1e6, float64(batchNs)/1e6, speedup)
	if speedup < minBatchSpeedup {
		t.Fatalf("batch speedup %.1fx over looped single verifies, want >= %.1fx", speedup, minBatchSpeedup)
	}
}

// minBatchSpeedup is the batch-over-looped-singles floor. Both paths run
// the one verdict engine, so the ratio prices only what a batch amortizes
// per line (HTTP request handling, routing, the response) over ten
// verdicts. Measured over 40 runs on 2 vCPUs: 3.7–5.4x, and 3.9–5.4x with
// both CPUs contended by busy loops; with the batch slowed 1.55x by a
// per-line spin, 2.2–3.6x, under the floor in 37 of the 40 runs.
const minBatchSpeedup = 3.5

// TestBatchWarmAllocs guards the engine's warm path, which the speedup
// ratio cannot: a regression shared by both paths leaves the ratio alone.
// A warm batch verdict allocates 0.10 times on average (the line decode
// and route amortized over ten verdicts); the guard allows 0.25.
func TestBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector, whose runtime allocates on its own")
	}
	eco, srv := fixture(t)
	providers := eco.DB.Providers()
	const lines = 256
	body := ndjsonBody(t, benchChains(t, eco, 8), providers, lines, true)
	if got := runBatch(t, srv, body); got != lines { // warm the verdict cache
		t.Fatalf("warmup produced %d lines, want %d", got, lines)
	}
	perBatch := testing.AllocsPerRun(5, func() { runBatch(t, srv, body) })
	perVerdict := perBatch / float64(lines*len(providers))
	t.Logf("warm batch: %.3f allocs/verdict (%.0f per %d-line batch)", perVerdict, perBatch, lines)
	if perVerdict > 0.25 {
		t.Fatalf("warm batch allocates %.3f times per verdict, want <= 0.25", perVerdict)
	}
}

// TestVerifyWarmAllocs holds a warm POST /v1/verify, served end to end
// through the handler stack, to its allocation budget. It measures 59
// allocations a request, request construction and the recorder included;
// the guard allows 92.
func TestVerifyWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector, whose runtime allocates on its own")
	}
	eco, srv := fixture(t)
	chain := benchChains(t, eco, 1)[0]
	body, err := json.Marshal(map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	post() // warm the verdict cache
	allocs := testing.AllocsPerRun(100, post)
	t.Logf("warm /v1/verify: %.0f allocs/request", allocs)
	if allocs > 92 {
		t.Fatalf("warm /v1/verify allocates %.0f times per request, want <= 92", allocs)
	}
}
