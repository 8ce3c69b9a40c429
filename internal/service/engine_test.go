package service

// Differential oracles for the verdict engine's two hand-rolled codecs:
// fastParseLine against encoding/json's decoder, appendJSONString against
// encoding/json's string encoder.

import (
	"encoding/json"
	"testing"
)

// fastParseSeeds cover the shapes the fast path takes and the ones it must
// hand to encoding/json.
var fastParseSeeds = []string{
	`{}`,
	` { "chain_pem" : "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n" } `,
	`{"chain_der":["AAAA","BBBB"],"stores":["NSS","Debian@Debian-007"],"at":"2020-11-15"}`,
	`{"chain_pem":"x","user_agent":"Mozilla/5.0 (X11; Linux x86_64)","purpose":"server-auth","dns_name":"a.example"}`,
	`{"chain_pem":"a\/b\\c\"d\te\r"}`,
	`{"stores":[],"chain_der":[]}`,
	`{"stores":["NSS"],"stores":["Debian"]}`,
	"{\"user_agent\":\"x\x01y\",\"stores\":[\"NSS\"]}",
	"{\"chain_pem\":\"a\nb\"}",
	"{\"chain_pem\":\"\\nx\ty\"}",
	"{\"at\":\"\xff\"}",
	"{\"user_agent\":\"caf\xc3\xa9\"}",
	`{"user_agent":"\u00e9"}`,
	`{"Stores":["NSS"]}`,
	`{"stores":null}`,
	`{"stores":["NSS",]}`,
	`{"chain_pem":"x"} trailing`,
	`{"chain_pem":"x",}`,
	`[]`,
	``,
}

// FuzzFastParseLine holds the fast path to its contract: whenever it
// accepts a line, encoding/json accepts the same line and decodes
// identical fields.
func FuzzFastParseLine(f *testing.F) {
	for _, s := range fastParseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var lf lineFields
		var pemBuf []byte
		if !fastParseLine(line, &lf, &pemBuf) {
			return
		}
		var req batchLineReq
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
		}
		same := func(field string, fast []byte, slow string) {
			if string(fast) != slow {
				t.Fatalf("%q: %s = %q on the fast path, %q via encoding/json", line, field, fast, slow)
			}
		}
		same("chain_pem", lf.chainPEM, req.ChainPEM)
		same("user_agent", lf.ua, req.UserAgent)
		same("at", lf.at, req.At)
		same("purpose", lf.purpose, req.Purpose)
		same("dns_name", lf.dnsName, req.DNSName)
		sameList := func(field string, fast [][]byte, slow []string) {
			if len(fast) != len(slow) {
				t.Fatalf("%q: %s has %d elements on the fast path, %d via encoding/json", line, field, len(fast), len(slow))
			}
			for i := range fast {
				same(field, fast[i], slow[i])
			}
		}
		sameList("chain_der", lf.chainDER, req.ChainDER)
		sameList("stores", lf.stores, req.Stores)
	})
}

func TestFastParseLineDeclinesControlBytes(t *testing.T) {
	var lf lineFields
	var pemBuf []byte
	for _, line := range []string{
		"{\"user_agent\":\"x\x01y\"}",
		"{\"chain_pem\":\"\\nx\x1fy\"}",
		"{\"stores\":[\"N\x00SS\"]}",
		"{\"at\":\"\xff\"}",
	} {
		if fastParseLine([]byte(line), &lf, &pemBuf) {
			t.Errorf("fast path accepted %q; encoding/json must decide it", line)
		}
	}
}

var jsonStringSeeds = []string{
	"",
	"plain ascii",
	`quote " backslash \ slash /`,
	"<script>&amp;</script>",
	"x509: certificate is valid for shop.example.test, not a<&>b.example.test",
	"\x00\x01\x07\b\f\n\r\t\x1f\x7f",
	"caf\u00e9 \u65e5\u672c \U0001F512",
	"line\u2028para\u2029end",
	"bad \xff utf8 \xc3 \xe2\x80 \xed\xa0\x80",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStringSeeds {
		checkJSONString(t, s)
	}
}

// FuzzAppendJSONString compares appendJSONString with json.Marshal on
// arbitrary bytes, invalid UTF-8 included.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

func checkJSONString(t *testing.T, s string) {
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); string(got) != string(want) {
		t.Fatalf("appendJSONString(%q) = %s, encoding/json gives %s", s, got, want)
	}
}
