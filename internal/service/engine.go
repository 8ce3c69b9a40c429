package service

// The verdict engine: the one code path from a decoded verify request to
// rendered verdict JSON, run once per POST /v1/verify request and once per
// POST /v1/verify/batch line. decode (fastParseLine, encoding/json as the
// fallback and arbiter) → chain identity (SHA-256 over the raw DER, no x509
// parse) → route (UA → provider, snapshot resolution, pre-rendered
// per-snapshot fragments) → verdict-cache lookup → cold verify (x509 parse
// only on a miss, under s.sem) → append-style render, byte for byte what
// encoding/json emits. A warm verdict parses nothing, starts no goroutine
// and runs nothing through encoding/json.

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"expvar"
	"fmt"
	"hash"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/useragent"
	"repro/internal/verify"
)

// verifyScratch is the engine's reusable state for one request (single
// verify, pooled per server) or one batch worker. One goroutine owns a
// scratch at a time, so none of this needs locking.
type verifyScratch struct {
	req      batchLineReq // encoding/json fallback target
	f        lineFields   // decoded request, byte views end to end
	body     []byte       // request body (single verify)
	out      []byte       // rendered response (single verify)
	pemBuf   []byte       // unescape buffer for chain_pem
	routeKey []byte       // batch route-memo key
	keyBuf   []byte       // verdict-cache key
	// chainKey is the chain's part of the verdict-cache key: the hex
	// SHA-256 of the concatenated DER, then each certificate's length, so
	// one PEM block holding two certificates' bytes cannot share verdicts
	// with the valid two-certificate chain it hashes like.
	chainKey  []byte
	derBuf    []byte              // decoded chain_der bytes
	ders      [][]byte            // per-certificate DER views
	certs     []*x509.Certificate // parsed on the first cold pair only
	interPool *x509.CertPool
	hasher    hash.Hash
	sum       []byte
	hexBuf    [2 * sha256.Size]byte

	// Verdict counters, resolved on first use so recording a verdict is
	// atomic adds rather than an expvar.Map walk per verdict.
	hits, misses *expvar.Int
	outcomeCtr   map[string]*expvar.Int
}

func newVerifyScratch() *verifyScratch {
	return &verifyScratch{hasher: sha256.New(), outcomeCtr: map[string]*expvar.Int{}}
}

// fill copies an encoding/json decode of the request into sc.f — the
// fallback for lines fastParseLine declines.
func (sc *verifyScratch) fill() {
	f, req := &sc.f, &sc.req
	f.reset()
	f.chainPEM = []byte(req.ChainPEM)
	for _, d := range req.ChainDER {
		f.chainDER = append(f.chainDER, []byte(d))
	}
	for _, ref := range req.Stores {
		f.stores = append(f.stores, []byte(ref))
	}
	f.ua, f.at = []byte(req.UserAgent), []byte(req.At)
	f.purpose, f.dnsName = []byte(req.Purpose), []byte(req.DNSName)
}

// resetReq clears the fallback target before a decode: encoding/json
// leaves absent fields as they were.
func (sc *verifyScratch) resetReq() {
	sc.req = batchLineReq{
		verifyRequest: verifyRequest{Stores: sc.req.Stores[:0]},
		ChainDER:      sc.req.ChainDER[:0],
	}
}

// chainIdentity splits the chain into DER certificates — chain_der when
// present, else the CERTIFICATE blocks of chain_pem — and renders its
// identity into hexBuf (the response's chain_sha256) and chainKey. No
// certificate is parsed. A non-empty return is a chain_der decode error.
func (sc *verifyScratch) chainIdentity() string {
	f := &sc.f
	sc.ders = sc.ders[:0]
	clear(sc.certs)
	sc.certs = sc.certs[:0]
	sc.interPool = nil
	if len(f.chainDER) > 0 {
		// Size the buffer for the whole chain first, so the views taken
		// into it stay valid.
		need := 0
		for _, b64 := range f.chainDER {
			need += base64.StdEncoding.DecodedLen(len(b64))
		}
		sc.derBuf = append(sc.derBuf[:0], make([]byte, need)...)
		off := 0
		for i, b64 := range f.chainDER {
			n, err := base64.StdEncoding.Decode(sc.derBuf[off:], b64)
			if err != nil {
				return fmt.Sprintf("chain_der[%d]: %v", i, err)
			}
			sc.ders = append(sc.ders, sc.derBuf[off:off+n])
			off += n
		}
	} else {
		rest := f.chainPEM
		for {
			var block *pem.Block
			block, rest = pem.Decode(rest)
			if block == nil {
				break
			}
			if block.Type != "CERTIFICATE" {
				continue
			}
			sc.ders = append(sc.ders, block.Bytes)
		}
	}
	sc.hasher.Reset()
	for _, der := range sc.ders {
		sc.hasher.Write(der)
	}
	sc.sum = sc.hasher.Sum(sc.sum[:0])
	hex.Encode(sc.hexBuf[:], sc.sum)
	key := append(sc.chainKey[:0], sc.hexBuf[:]...)
	for _, der := range sc.ders {
		key = append(key, '/')
		key = strconv.AppendInt(key, int64(len(der)), 10)
	}
	sc.chainKey = key
	return ""
}

// certError names the first certificate of a chain that x509 rejects.
type certError struct {
	index int
	err   error
}

func (e *certError) Error() string { return fmt.Sprintf("certificate %d in chain: %v", e.index, e.err) }

// parseChain x509-parses the chain once per request, on the first cold
// pair (or on an error path, where chain errors outrank later checks).
func (sc *verifyScratch) parseChain() error {
	if len(sc.certs) == len(sc.ders) && sc.interPool != nil {
		return nil
	}
	sc.certs = sc.certs[:0]
	for i, der := range sc.ders {
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			return &certError{index: i, err: err}
		}
		sc.certs = append(sc.certs, cert)
	}
	sc.interPool = verify.PoolIntermediates(sc.certs[1:])
	return nil
}

// count records one emitted verdict.
func (sc *verifyScratch) count(m *Metrics, outcome string, hit bool) {
	if sc.hits == nil {
		sc.hits, sc.misses = m.cache.With("verdict_hits"), m.cache.With("verdict_misses")
	}
	if hit {
		sc.hits.Add(1)
	} else {
		sc.misses.Add(1)
	}
	ctr, seen := sc.outcomeCtr[outcome]
	if !seen {
		ctr = m.outcomes.With(outcome)
		sc.outcomeCtr[outcome] = ctr
	}
	if ctr != nil {
		ctr.Add(1)
	}
	m.verified.Add(1)
}

// parsePurpose reads the request's purpose, server-auth when absent.
func parsePurpose(b []byte) (store.Purpose, error) {
	if len(b) == 0 {
		return store.ServerAuth, nil
	}
	return store.ParsePurpose(string(b))
}

// snapFrag is one snapshot's engine fragments, rendered once per
// generation and shared by every request that routes to the snapshot.
type snapFrag struct {
	key  string // snap.Key()
	date string // snap.Date as the verdict key renders it (UTC, RFC 3339)
	pre  []byte // `{"store":"…","provider":"…","date":"…"`
}

// frag returns the snapshot's fragments, rendering them on first use.
func (st *dbState) frag(snap *store.Snapshot) *snapFrag {
	if f, ok := st.frags.Load(snap); ok {
		return f.(*snapFrag)
	}
	fr := &snapFrag{key: snap.Key(), date: snap.Date.UTC().Format(time.RFC3339)}
	fr.pre = appendJSONString(append(fr.pre, `{"store":`...), fr.key)
	fr.pre = appendJSONString(append(fr.pre, `,"provider":`...), snap.Provider)
	// The layout time.Time's MarshalJSON uses, in the date's own zone.
	fr.pre = append(snap.Date.AppendFormat(append(fr.pre, `,"date":"`...), time.RFC3339Nano), '"')
	f, _ := st.frags.LoadOrStore(snap, fr)
	return f.(*snapFrag)
}

// verifyRoute is the resolved, pre-rendered form of one
// (stores, user_agent, at) tuple.
type verifyRoute struct {
	// status is non-zero when resolution failed: 400 (bad at), 404
	// (unknown ref) or 422 (untraceable UA, no stores).
	status int
	errMsg string
	uaJSON []byte // `,"user_agent":{…}`, or nil
	atJSON []byte // `,"at":"…"`, or nil
	snaps  []routeSnap
}

// routeSnap is one snapshot of a route and the instant it verifies at.
type routeSnap struct {
	snap  *store.Snapshot
	frag  *snapFrag
	at    time.Time
	atRFC string // at as the verdict key renders it
}

// resolveRoute applies the routing rules in the order /v1/verify reports
// their errors: the instant, the UA → store mapping, then each store ref.
// Refs resolving to one snapshot are verified once.
func (st *dbState) resolveRoute(stores [][]byte, userAgent, atStr []byte) *verifyRoute {
	rt := &verifyRoute{}
	at, err := parseAt(string(atStr))
	if err != nil {
		rt.status, rt.errMsg = http.StatusBadRequest, err.Error()
		return rt
	}
	var atRFC string
	if !at.IsZero() {
		// Rendered as encoding/json renders a time.Time: RFC 3339 in the
		// caller's own offset. The cache key stays UTC.
		js, err := at.MarshalJSON()
		if err != nil {
			// An offset of 24h or more parses but cannot be rendered.
			rt.status, rt.errMsg = http.StatusBadRequest, fmt.Sprintf("invalid time %q: want RFC 3339 or YYYY-MM-DD", atStr)
			return rt
		}
		rt.atJSON = append(append(make([]byte, 0, len(`,"at":`)+len(js)), `,"at":`...), js...)
		atRFC = at.UTC().Format(time.RFC3339)
	}

	refs := make([]string, len(stores), len(stores)+1)
	for i, ref := range stores {
		refs[i] = string(ref)
	}
	if len(userAgent) != 0 {
		agent := useragent.Parse(string(userAgent))
		mapped := useragent.MapToProvider(agent)
		ua := append(make([]byte, 0, 160), `,"user_agent":{"browser":`...)
		ua = appendJSONString(ua, string(agent.Browser))
		ua = appendJSONString(append(ua, `,"os":`...), string(agent.OS))
		if mapped.Provider != "" {
			ua = appendJSONString(append(ua, `,"provider":`...), string(mapped.Provider))
		}
		ua = strconv.AppendBool(append(ua, `,"traceable":`...), mapped.Traceable)
		ua = appendJSONString(append(ua, `,"reason":`...), mapped.Reason)
		rt.uaJSON = append(ua, '}')
		if mapped.Traceable {
			refs = append(refs, string(mapped.Provider))
		} else if len(refs) == 0 {
			// The paper could not trace this client to a store and the
			// caller named no fallback: nothing to verify against.
			rt.status, rt.errMsg = http.StatusUnprocessableEntity, "user agent is not traceable to a store and no stores were given"
			return rt
		}
	}
	if len(refs) == 0 {
		refs = st.db.Providers()
	}

	rt.snaps = make([]routeSnap, 0, len(refs))
	seen := make(map[string]bool, len(refs))
	for _, ref := range refs {
		snap, err := st.resolveSnapshot(ref, at)
		if err != nil {
			rt.status, rt.errMsg = http.StatusBadRequest, err.Error()
			if re, ok := err.(*refError); ok && re.notFound {
				rt.status = http.StatusNotFound
			}
			return rt
		}
		fr := st.frag(snap)
		if seen[fr.key] {
			continue
		}
		seen[fr.key] = true
		rs := routeSnap{snap: snap, frag: fr, at: at, atRFC: atRFC}
		if at.IsZero() {
			rs.at, rs.atRFC = snap.Date, rs.frag.date
		}
		rt.snaps = append(rt.snaps, rs)
	}
	return rt
}

// appendVerifyHead renders the response fields ahead of the verdict rows:
// `"chain_sha256":"…","purpose":"…"[,"at":…][,"user_agent":{…}],"verdicts":`.
func appendVerifyHead(out []byte, chainHash []byte, purpose store.Purpose, rt *verifyRoute) []byte {
	out = append(out, `"chain_sha256":"`...)
	out = append(out, chainHash...)
	out = appendJSONString(append(out, `","purpose":`...), purpose.String())
	out = append(out, rt.atJSON...)
	out = append(out, rt.uaJSON...)
	return append(out, `,"verdicts":`...)
}

// appendVerdicts renders one verdict row per routed snapshot, joined by
// commas, from the generation's verdict cache or a cold verification.
// traced opens a verify.store span per store (POST /v1/verify); batch
// lines go untraced. A chain x509 rejects returns a *certError.
func (s *Server) appendVerdicts(ctx context.Context, out []byte, st *dbState, rt *verifyRoute, sc *verifyScratch, purpose store.Purpose, traced bool) ([]byte, error) {
	depth := strconv.Itoa(len(sc.ders))
	for i := range rt.snaps {
		rs := &rt.snaps[i]
		if i > 0 {
			out = append(out, ',')
		}
		var span *obs.Span
		if traced {
			span = obs.StartLeafSpan(ctx, "verify.store")
			span.Annotate("store", rs.frag.key)
			span.Annotate("chain_depth", depth)
		}
		key := append(sc.keyBuf[:0], sc.chainKey...)
		key = append(key, '|')
		key = append(key, rs.frag.key...)
		key = append(key, '|')
		key = append(key, purpose.String()...)
		key = append(key, '|')
		key = append(key, sc.f.dnsName...)
		key = append(key, '|')
		key = append(key, rs.atRFC...)
		sc.keyBuf = key

		v, hit := st.verdicts.getBytes(key)
		if !hit {
			if err := sc.parseChain(); err != nil {
				span.Annotate("outcome", "error")
				span.End()
				return out, err
			}
			v = s.coldVerdict(ctx, st, rs, verify.Request{
				Leaf:          sc.certs[0],
				Intermediates: sc.certs[1:],
				InterPool:     sc.interPool,
				Purpose:       purpose,
				DNSName:       string(sc.f.dnsName),
				At:            rs.at,
			}, key)
		}
		sc.count(s.metrics, v.Outcome, hit)
		out = append(append(out, rs.frag.pre...), v.tail...)
		if hit {
			out = append(out, `,"cached":true`...)
		}
		out = append(out, '}')
		span.Annotate("outcome", v.Outcome)
		span.Annotate("cached", strconv.FormatBool(hit))
		span.End()
	}
	return out, nil
}

// coldVerdict verifies one (chain, store) pair under the shared worker
// semaphore and memoizes the verdict for every later request and batch
// line of the generation.
func (s *Server) coldVerdict(ctx context.Context, st *dbState, rs *routeSnap, vreq verify.Request, key []byte) storeVerdict {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return newVerdict("timeout", "", "", ctx.Err().Error())
	}
	res := st.verifiers.get(rs.snap).Verify(vreq)
	<-s.sem

	var anchor, label, errMsg string
	if res.Anchor != nil {
		anchor, label = res.Anchor.Fingerprint.String(), res.Anchor.Label
	}
	if res.Err != nil {
		errMsg = res.Err.Error()
	}
	v := newVerdict(res.Outcome.String(), anchor, label, errMsg)
	st.verdicts.put(string(key), v)
	return v
}

// newVerdict renders a verdict's fields once, so a cache hit renders its
// row with two copies and no escaping.
func newVerdict(outcome, anchor, label, errMsg string) storeVerdict {
	tail := appendJSONString([]byte(`,"outcome":`), outcome)
	if anchor != "" {
		tail = appendJSONString(append(tail, `,"anchor":`...), anchor)
	}
	if label != "" {
		tail = appendJSONString(append(tail, `,"anchor_label":`...), label)
	}
	if errMsg != "" {
		tail = appendJSONString(append(tail, `,"error":`...), errMsg)
	}
	return storeVerdict{Outcome: outcome, tail: tail}
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// marshals a Go string: the HTML-sensitive <, > and & escaped as \u003c,
// \u003e and \u0026, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 replaced by \ufffd.
func appendJSONString(buf []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if size == 1 || r == '\u2028' || r == '\u2029' { // size 1: invalid UTF-8
			buf = append(buf, s[start:i]...)
			if size == 1 {
				buf = append(buf, `\ufffd`...)
			} else {
				buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			}
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// decodeLine decodes one batch line into sc.f: the fast path, else
// json.Unmarshal (exactly one value per line, chain_der allowed).
func (sc *verifyScratch) decodeLine(line []byte) error {
	if fastParseLine(line, &sc.f, &sc.pemBuf) {
		return nil
	}
	sc.resetReq()
	if err := json.Unmarshal(line, &sc.req); err != nil {
		return err
	}
	sc.fill()
	return nil
}
