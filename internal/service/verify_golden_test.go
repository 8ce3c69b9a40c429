package service_test

// Golden bytes for POST /v1/verify. Every case's status, Content-Type and
// exact response body are pinned in testdata/verify_golden.json, so any
// change to decoding, routing, rendering or error precedence shows up as a
// byte diff. The chain is pinned too (testdata/verify_chain.pem): leaf
// signatures draw from a process-wide random stream, so a freshly minted
// leaf would hash differently from run to run.
//
// Regenerate with: go test ./internal/service -run TestVerifyGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

type verifyGoldenCase struct {
	Name        string `json:"name"`
	Request     string `json:"request"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Response    string `json:"response"`
}

// goldenChain returns the pinned §6.2 fixture chain, minting and saving it
// when -update runs without one.
func goldenChain(t *testing.T) string {
	t.Helper()
	path := filepath.Join("testdata", "verify_chain.pem")
	raw, err := os.ReadFile(path)
	if err == nil {
		return string(raw)
	}
	if !*updateGolden {
		t.Fatalf("read pinned chain: %v (run with -update to mint one)", err)
	}
	eco, _ := fixture(t)
	chain, _ := symantecChain(t, eco)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(chain), 0o644); err != nil {
		t.Fatal(err)
	}
	return chain
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestVerifyGolden(t *testing.T) {
	eco, _ := fixture(t)
	chain := goldenChain(t)
	// A second, unrelated PEM block ahead of the leaf: non-CERTIFICATE
	// blocks are skipped, not rejected.
	keyBlock := "-----BEGIN PUBLIC KEY-----\nAAAA\n-----END PUBLIC KEY-----\n"
	garbage := "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n"
	at := "2020-11-15"

	type req struct {
		name string
		body string
		srv  *service.Server
	}
	// Fresh servers: cached flags depend on what ran before, so the case
	// order below is part of the golden.
	srv := service.New(eco.DB, service.Config{})
	small := service.New(eco.DB, service.Config{MaxBodyBytes: 4096})
	reqs := []req{
		{"ok uncached", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS", "Debian"}, "at": at}), srv},
		{"ok cached", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS", "Debian"}, "at": at}), srv},
		{"all providers", mustJSON(t, map[string]any{"chain_pem": chain, "at": at}), srv},
		{"snapshot dates", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"Microsoft"}}), srv},
		{"traceable ua", mustJSON(t, map[string]any{"chain_pem": chain, "user_agent": uaFirefox, "at": at}), srv},
		{"untraceable ua with stores", mustJSON(t, map[string]any{"chain_pem": chain, "user_agent": "okhttp/4.9.0", "stores": []string{"Microsoft"}, "at": at}), srv},
		{"ua plus stores", mustJSON(t, map[string]any{"chain_pem": chain, "user_agent": uaSafari, "stores": []string{"NSS"}, "at": at}), srv},
		{"duplicate stores", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS", "Debian", "NSS"}, "user_agent": uaFirefox, "at": at}), srv},
		{"at with offset", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS", "Microsoft"}, "at": "2020-11-15T12:00:00+02:00"}), srv},
		{"at with fraction", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"Microsoft"}, "at": "2020-11-15T12:00:00.5Z"}), srv},
		{"dns mismatch escaped", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"Microsoft"}, "at": at, "dns_name": "a<&>b.example.test"}), srv},
		{"purpose explicit", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"Microsoft"}, "at": at, "purpose": "server-auth"}), srv},
		{"key block skipped", mustJSON(t, map[string]any{"chain_pem": keyBlock + chain, "stores": []string{"Microsoft"}, "at": at}), srv},
		{"escaped fields", `{"chain_pem":` + mustJSON(t, chain) + `,"stores":["\u004eSS"],"at":"2020\u002d11-15"}`, srv},
		{"unknown fields ignored", `{"chain_pem":` + mustJSON(t, chain) + `,"stores":["NSS"],"at":"2020-11-15","extra":{"a":[1,2]}}`, srv},
		{"trailing bytes", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": at}) + " trailing garbage", srv},
		{"untraceable ua 422", mustJSON(t, map[string]any{"chain_pem": chain, "user_agent": "okhttp/4.9.0", "at": at}), srv},
		{"bad json", "{not json", srv},
		{"empty body", "", srv},
		{"empty chain", mustJSON(t, map[string]any{"chain_pem": ""}), srv},
		{"chain_der ignored", mustJSON(t, map[string]any{"chain_der": derChain(t, chain), "stores": []string{"NSS"}}), srv},
		{"no certificate blocks", mustJSON(t, map[string]any{"chain_pem": keyBlock}), srv},
		{"garbage der", mustJSON(t, map[string]any{"chain_pem": garbage, "stores": []string{"NSS"}}), srv},
		{"bad purpose", mustJSON(t, map[string]any{"chain_pem": chain, "purpose": "world-domination"}), srv},
		{"bad at", mustJSON(t, map[string]any{"chain_pem": chain, "at": "yesterday"}), srv},
		{"bad chain and bad purpose", mustJSON(t, map[string]any{"chain_pem": garbage, "purpose": "world-domination"}), srv},
		{"bad purpose and bad at", mustJSON(t, map[string]any{"chain_pem": chain, "purpose": "world-domination", "at": "yesterday"}), srv},
		{"bad at and unknown store", mustJSON(t, map[string]any{"chain_pem": chain, "at": "yesterday", "stores": []string{"NetBSD"}}), srv},
		{"unknown store", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NetBSD"}}), srv},
		{"unknown store escaped", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS", "<&>"}}), srv},
		{"unknown version", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS@nope"}}), srv},
		{"no snapshot at", mustJSON(t, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "1990-01-01"}), srv},
		{"oversize body", mustJSON(t, map[string]any{"chain_pem": strings.Repeat("A", 8192)}), small},
	}

	var got []verifyGoldenCase
	for _, r := range reqs {
		hreq := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(r.body))
		rec := httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(rec, hreq)
		got = append(got, verifyGoldenCase{
			Name:        r.name,
			Request:     r.body,
			Status:      rec.Code,
			ContentType: rec.Header().Get("Content-Type"),
			Response:    rec.Body.String(),
		})
	}

	path := filepath.Join("testdata", "verify_golden.json")
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	var want []verifyGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test has %d (run with -update after adding cases)", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Request != w.Request {
			t.Fatalf("case %d is %q, golden has %q: regenerate with -update", i, g.Name, w.Name)
		}
		if g.Status != w.Status || g.ContentType != w.ContentType || g.Response != w.Response {
			t.Errorf("%s:\n got %d %q %s\nwant %d %q %s", g.Name,
				g.Status, g.ContentType, g.Response, w.Status, w.ContentType, w.Response)
		}
	}
}
