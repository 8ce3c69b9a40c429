package service_test

// Tests for the /v1/verify/batch NDJSON pipeline: ordering, parity with
// the single-verify endpoint, per-line error isolation, oversized-line
// handling, client-disconnect drain, and generation pinning across a
// mid-batch hot swap.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// batchLineOut is one decoded NDJSON response line.
type batchLineOut struct {
	Seq         int    `json:"seq"`
	ChainSHA256 string `json:"chain_sha256"`
	Purpose     string `json:"purpose"`
	At          string `json:"at"`
	UserAgent   *struct {
		Browser   string `json:"browser"`
		Provider  string `json:"provider"`
		Traceable bool   `json:"traceable"`
	} `json:"user_agent"`
	Verdicts []struct {
		Store             string    `json:"store"`
		Provider          string    `json:"provider"`
		Date              time.Time `json:"date"`
		Outcome           string    `json:"outcome"`
		AnchorFingerprint string    `json:"anchor"`
		AnchorLabel       string    `json:"anchor_label"`
		Error             string    `json:"error"`
		Cached            bool      `json:"cached"`
	} `json:"verdicts"`
	Error string `json:"error"`
}

// postBatch drives the handler with an NDJSON body and decodes every
// response line, failing the test on any line that is not valid JSON.
func postBatch(t *testing.T, srv *service.Server, body string) []batchLineOut {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", res.StatusCode, rec.Body.String())
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []batchLineOut
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLineOut
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("response line %d is not valid JSON: %v\n%s", len(out), err, sc.Text())
		}
		out = append(out, line)
	}
	return out
}

// derChain converts a PEM chain into the chain_der base64 form.
func derChain(t testing.TB, chainPEM string) []string {
	t.Helper()
	var ders []string
	rest := []byte(chainPEM)
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		ders = append(ders, base64.StdEncoding.EncodeToString(block.Bytes))
	}
	if len(ders) == 0 {
		t.Fatal("no PEM blocks in fixture chain")
	}
	return ders
}

func ndline(t *testing.T, v map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw) + "\n"
}

// TestBatchMatchesSingleVerify holds the two endpoints to one answer: for
// each request shape, a batch line (chain_pem or chain_der) minus its seq
// is byte for byte the /v1/verify response — whole verdict rows, the at
// instant (including a caller's UTC offset), the user_agent block and
// escaped error text.
func TestBatchMatchesSingleVerify(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	shapes := []map[string]any{
		{"stores": []string{"NSS", "Microsoft"}, "at": "2020-11-15"},
		{"stores": []string{"NSS", "Debian"}, "at": "2020-01-01T00:00:00+02:00"},
		{"user_agent": uaFirefox, "stores": []string{"Debian"}, "at": "2020-11-15T08:30:00.25-05:00"},
		{"user_agent": "okhttp/4.9.0", "stores": []string{"Microsoft"}},
		{"stores": []string{"Microsoft"}, "at": "2020-11-15", "dns_name": "a<&>b.example.test"},
	}
	for _, shape := range shapes {
		single := map[string]any{"chain_pem": chain}
		for k, v := range shape {
			single[k] = v
		}
		// The second single verify answers from the verdict cache, as the
		// batch lines after it do.
		postVerifyRaw(t, srv, single)
		want := postVerifyRaw(t, srv, single)

		der := map[string]any{"chain_der": derChain(t, chain)}
		for k, v := range shape {
			der[k] = v
		}
		lines := postBatchRaw(t, srv, ndline(t, single)+ndline(t, der))
		if len(lines) != 2 {
			t.Fatalf("%v: got %d lines, want 2", shape, len(lines))
		}
		for i, line := range lines {
			prefix := fmt.Sprintf(`{"seq":%d,`, i)
			if !strings.HasPrefix(line, prefix) {
				t.Fatalf("%v: line %d = %s, want prefix %s", shape, i, line, prefix)
			}
			if got := "{" + line[len(prefix):]; got != want {
				t.Errorf("%v: line %d differs from /v1/verify\n got %s\nwant %s", shape, i, got, want)
			}
		}
	}
}

// postVerifyRaw posts a /v1/verify body and returns the 200 response bytes.
func postVerifyRaw(t *testing.T, srv *service.Server, body map[string]any) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(ndline(t, body)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("single verify status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// postBatchRaw posts an NDJSON batch and returns its response lines, each
// with its newline.
func postBatchRaw(t *testing.T, srv *service.Server, body string) []string {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.SplitAfter(rec.Body.String(), "\n")
	return lines[:len(lines)-1] // after the last newline: empty
}

func TestBatchUserAgentRouting(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)

	body := ndline(t, map[string]any{
		"chain_pem": chain, "user_agent": uaFirefox, "at": "2020-11-15",
	}) + ndline(t, map[string]any{
		// Untraceable with no fallback stores: a per-line error, with the
		// routing explanation attached.
		"chain_pem": chain, "user_agent": "okhttp/4.9.0",
	})
	lines := postBatch(t, srv, body)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	ff := lines[0]
	if ff.UserAgent == nil || ff.UserAgent.Provider != "NSS" || !ff.UserAgent.Traceable {
		t.Fatalf("firefox line user_agent = %+v, want NSS/traceable", ff.UserAgent)
	}
	if len(ff.Verdicts) != 1 || ff.Verdicts[0].Provider != "NSS" {
		t.Fatalf("firefox line verdicts = %+v, want one NSS verdict", ff.Verdicts)
	}
	bad := lines[1]
	if bad.Error == "" || bad.UserAgent == nil || bad.UserAgent.Traceable {
		t.Fatalf("okhttp line = %+v, want error with untraceable user_agent info", bad)
	}
}

func TestBatchMalformedLineMidStream(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	good := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})

	before, _ := srv.Metrics().Value("batch_rejected_lines_total")
	body := good + "{this is not json\n" + `{"chain_pem":""}` + "\n" + good
	lines := postBatch(t, srv, body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (stream must continue past bad lines)", len(lines))
	}
	if lines[0].Error != "" || len(lines[0].Verdicts) == 0 {
		t.Fatalf("line 0 = %+v, want verdicts", lines[0])
	}
	if !strings.Contains(lines[1].Error, "invalid JSON") {
		t.Fatalf("line 1 error = %q, want invalid JSON", lines[1].Error)
	}
	if !strings.Contains(lines[2].Error, "no certificates") {
		t.Fatalf("line 2 error = %q, want empty-chain error", lines[2].Error)
	}
	if lines[3].Error != "" || len(lines[3].Verdicts) == 0 {
		t.Fatalf("line 3 = %+v, want verdicts", lines[3])
	}
	if after, _ := srv.Metrics().Value("batch_rejected_lines_total"); after-before != 2 {
		t.Errorf("batch rejects grew by %v, want 2", after-before)
	}
	if depth, _ := srv.Metrics().Value("batch_queue_depth"); depth != 0 {
		t.Errorf("queue depth %v after batch, want 0", depth)
	}
}

func TestBatchUnknownStoreAndBadAt(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	body := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NetBSD"}}) +
		ndline(t, map[string]any{"chain_pem": chain, "at": "yesterday"}) +
		ndline(t, map[string]any{"chain_pem": chain, "purpose": "world-domination"}) +
		ndline(t, map[string]any{"chain_pem": chain, "at": "2020-01-01T00:00:00+24:00"})
	lines := postBatch(t, srv, body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for i, want := range []string{"unknown provider", "invalid time", "purpose", "invalid time"} {
		if !strings.Contains(lines[i].Error, want) {
			t.Errorf("line %d error = %q, want %q", i, lines[i].Error, want)
		}
	}
}

func TestBatchOversizedLine(t *testing.T) {
	eco, _ := fixture(t)
	// A private server with a tiny per-line cap; the body cap must NOT
	// apply to the stream as a whole.
	inner := service.New(eco.DB, service.Config{MaxBodyBytes: 2048})
	small := ndline(t, map[string]any{"chain_pem": "x", "stores": []string{"NSS"}})
	huge := `{"chain_pem":"` + strings.Repeat("A", 64<<10) + `"}` + "\n"
	lines := postBatch(t, inner, small+huge+small)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[1].Error, "exceeds 2048 bytes") {
		t.Fatalf("oversized line error = %q", lines[1].Error)
	}
	// The stream continued: line 2 got its (chain-parse) answer.
	if lines[2].Seq != 2 {
		t.Fatalf("line after oversized has seq %d, want 2", lines[2].Seq)
	}
	// Total body (>64KiB) exceeded MaxBodyBytes many times over, yet the
	// batch served — while the single endpoint refuses such a body.
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(huge))
	rec := httptest.NewRecorder()
	inner.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("single verify with oversized body: status %d, want 413", rec.Code)
	}
}

func TestBatchClientDisconnectDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("drain test skipped in -short mode")
	}
	eco, _ := fixture(t)
	inner := service.New(eco.DB, service.Config{})
	ts := httptest.NewServer(inner.Handler())
	defer ts.Close()
	chain, _ := symantecChain(t, eco)
	line := ndline(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"})

	baseline := runtime.NumGoroutine()

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Feed lines until the pipe breaks (request cancelled).
		for {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
		}
	}()
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few verdict lines to prove the stream is live, then vanish.
	br := bufio.NewReader(res.Body)
	for i := 0; i < 3; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading verdict line %d: %v", i, err)
		}
	}
	cancel()
	res.Body.Close()
	pw.Close()

	// Workers, reader and writer must all exit promptly and account for
	// every queued job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		depth, _ := inner.Metrics().Value("batch_queue_depth")
		if depth == 0 && runtime.NumGoroutine() <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("pipeline did not drain: queue=%v goroutines=%d (baseline %d)\n%s",
				depth, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBatchHotSwapSingleGeneration pins the generation contract: a swap
// installed while a batch is streaming must not leak into it — every
// verdict in one batch comes from the generation the batch started on.
func TestBatchHotSwapSingleGeneration(t *testing.T) {
	roots := testcerts.Roots(1)
	snapDate := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	mkdb := func(trust bool) *store.Database {
		db := store.NewDatabase()
		snap := store.NewSnapshot("Solo", snapDate.Format("2006-01-02"), snapDate)
		e, err := store.NewTrustedEntry(roots[0].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		if !trust {
			e.SetTrust(store.ServerAuth, store.Distrusted)
		}
		snap.Add(e)
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return db
	}
	leafDER, _, err := roots[0].IssueLeaf(testcerts.Pool(), certgen.LeafSpec{
		CommonName: "swap.example.test",
		DNSNames:   []string{"swap.example.test"},
		NotBefore:  time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	var pemBuf bytes.Buffer
	if err := pem.Encode(&pemBuf, &pem.Block{Type: "CERTIFICATE", Bytes: leafDER}); err != nil {
		t.Fatal(err)
	}
	line := ndline(t, map[string]any{"chain_pem": pemBuf.String(), "stores": []string{"Solo"}})

	inner := service.New(mkdb(true), service.Config{})
	ts := httptest.NewServer(inner.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	const perPhase = 50
	for i := 0; i < perPhase; i++ {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
	}
	// Give the pipeline a moment to chew the first phase, then swap to a
	// database where the same chain must FAIL, and stream the rest.
	time.Sleep(200 * time.Millisecond)
	inner.Swap(mkdb(false))
	for i := 0; i < perPhase; i++ {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()

	var res *http.Response
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("batch response never arrived")
	}
	defer res.Body.Close()

	outcomes := map[string]int{}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var l batchLineOut
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.Error != "" {
			t.Fatalf("line %d errored: %s", n, l.Error)
		}
		for _, v := range l.Verdicts {
			outcomes[v.Outcome]++
		}
		n++
	}
	if n != 2*perPhase {
		t.Fatalf("got %d lines, want %d", n, 2*perPhase)
	}
	if len(outcomes) != 1 || outcomes["ok"] != 2*perPhase {
		t.Fatalf("mixed verdicts across the swap: %v (want all ok from the pinned generation)", outcomes)
	}
	// New requests DO see the new generation.
	rec := httptest.NewRecorder()
	sreq := httptest.NewRequest(http.MethodPost, "/v1/verify",
		strings.NewReader(fmt.Sprintf(`{"chain_pem":%q,"stores":["Solo"]}`, pemBuf.String())))
	inner.Handler().ServeHTTP(rec, sreq)
	var out struct {
		Verdicts []struct {
			Outcome string `json:"outcome"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Verdicts) != 1 || out.Verdicts[0].Outcome == "ok" {
		t.Fatalf("post-swap single verify = %+v, want a non-ok outcome", out.Verdicts)
	}
}
