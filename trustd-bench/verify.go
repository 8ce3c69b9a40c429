package main

import (
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/useragent"
	"repro/internal/verify"
)

// verifyWorkload is the shape shared by verify-hot and verify-cold: open-
// loop POST /v1/verify traffic with a few batches mixed in, a capacity
// ladder, and a closed-loop bulk batch phase. Only the leaf pool differs.
type verifyWorkload struct {
	prefix string
	// leaves is the pool size. cycle draws leaves in order, round robin,
	// instead of at random, so each verdict is evicted from the LRU before
	// its leaf comes round again.
	leaves int
	cycle  bool
	// refRate is the fixed open-loop rate the latency metrics are measured
	// at, about a sixth of the workload's slo_rps on the 2-vCPU host.
	refRate float64
	// ladder is the fixed set of rates slo_rps is searched on, ascending.
	ladder []float64
}

var (
	verifyHot  = verifyWorkload{prefix: "hot", leaves: 16, refRate: 2000, ladder: []float64{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000}}
	verifyCold = verifyWorkload{prefix: "cold", leaves: 1536, cycle: true, refRate: 600, ladder: []float64{400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000}}
)

func runVerifyHot(r *run) error  { return verifyHot.run(r) }
func runVerifyCold(r *run) error { return verifyCold.run(r) }

const (
	// storesPerRequest explicit stores ride every request beside the UA,
	// so untraceable agents still verify (no 422).
	storesPerRequest = 3
	// mixedBatchShare of reference-phase requests are /v1/verify/batch
	// requests of mixedBatchLines lines.
	mixedBatchShare = 0.03
	mixedBatchLines = 8
	// bulkLines is the fixed batch size of the bulk phase.
	bulkLines = 128
	// phaseSlices is how many interleaved slices the reference and bulk phases
	// are cut into.
	phaseSlices = 12
	// rungSeconds is the length of one ladder rung.
	rungSeconds = 0.25
)

// verifyEnv is a set-up verify workload: corpus, leaves, live server and
// the oracle of every (leaf, provider) verdict.
type verifyEnv struct {
	w         *verifyWorkload
	eco       *synth.Ecosystem
	leaves    []leaf
	certs     []*x509.Certificate
	srv       *server
	providers []string
	latest    map[string]*store.Snapshot
	want      [][]verdict // [leaf][provider index]
	uas       []string
	uaProv    []string // provider a UA routes to, "" when untraceable
	rng       *rand.Rand
	cursor    int
}

// verdict is the part of a store verdict the oracle checks.
type verdict struct {
	Store   string `json:"store"`
	Outcome string `json:"outcome"`
	Anchor  string `json:"anchor"`
}

// verifyCall is one drawn /v1/verify call.
type verifyCall struct {
	leaf   int
	ua     int
	stores []string
}

type verifyBody struct {
	ChainPEM  string   `json:"chain_pem,omitempty"`
	ChainDER  []string `json:"chain_der,omitempty"`
	UserAgent string   `json:"user_agent"`
	Stores    []string `json:"stores"`
}

func (w *verifyWorkload) setup(r *run) (*verifyEnv, error) {
	if w.cycle && w.leaves*storesPerRequest <= service.DefaultVerdictCacheSize {
		return nil, fmt.Errorf("%s pool of %d leaves fits in trustd's verdict cache", w.prefix, w.leaves)
	}
	env, times, err := repeatSetup(setupRepeats, func() (*verifyEnv, error) {
		eco, err := generate()
		if err != nil {
			return nil, err
		}
		leaves, err := mintLeaves(eco, r.seed, w.prefix, w.leaves)
		if err != nil {
			return nil, err
		}
		srv, err := boot(eco.DB)
		if err != nil {
			return nil, err
		}
		return &verifyEnv{w: w, eco: eco, leaves: leaves, srv: srv}, nil
	}, func(e *verifyEnv) { e.srv.close() })
	if err != nil {
		return nil, err
	}
	r.setup(times)
	return env, env.buildOracle(r.seed)
}

// buildOracle computes, with verify.New(snap).Verify, the verdict every
// (leaf, provider) pair must get, and prepares the seeded draws.
func (e *verifyEnv) buildOracle(seed int64) error {
	e.providers = e.eco.DB.Providers()
	e.latest = map[string]*store.Snapshot{}
	for _, p := range e.providers {
		e.latest[p] = e.eco.DB.History(p).Latest()
	}
	for _, l := range e.leaves {
		c, err := x509.ParseCertificate(l.der)
		if err != nil {
			return err
		}
		e.certs = append(e.certs, c)
	}
	e.want = make([][]verdict, len(e.leaves))
	for i := range e.want {
		e.want[i] = make([]verdict, len(e.providers))
	}
	parallel(len(e.providers), func(pi int) {
		snap := e.latest[e.providers[pi]]
		v := verify.New(snap)
		for li, c := range e.certs {
			e.want[li][pi] = verdictOf(snap, v.Verify(verify.Request{Leaf: c, Purpose: store.ServerAuth}))
		}
	})
	e.uas = useragent.Generate(useragent.PaperSample())
	for _, ua := range e.uas {
		m := useragent.MapToProvider(useragent.Parse(ua))
		p := ""
		if m.Traceable {
			p = string(m.Provider)
			if e.latest[p] == nil {
				return fmt.Errorf("UA %q routes to %q, which the corpus lacks", ua, p)
			}
		}
		e.uaProv = append(e.uaProv, p)
	}
	e.rng = rand.New(rand.NewPCG(uint64(seed), 0x7275737464))
	return nil
}

func verdictOf(snap *store.Snapshot, res verify.Result) verdict {
	v := verdict{Store: snap.Key(), Outcome: res.Outcome.String()}
	if res.Anchor != nil {
		v.Anchor = res.Anchor.Fingerprint.String()
	}
	return v
}

// parallel runs fn(0..n-1) on nproc goroutines.
func parallel(n int, fn func(i int)) {
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	done := make(chan struct{})
	workers := min(n, runtime.NumCPU())
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range work {
				fn(i)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// draw picks the next call: a leaf (at random, or the next in the cycle),
// a UA from the Table 1 population and distinct explicit stores.
func (e *verifyEnv) draw() verifyCall {
	c := verifyCall{ua: e.rng.IntN(len(e.uas))}
	if e.w.cycle {
		c.leaf = e.cursor % len(e.leaves)
		e.cursor++
	} else {
		c.leaf = e.rng.IntN(len(e.leaves))
	}
	for _, pi := range e.rng.Perm(len(e.providers))[:storesPerRequest] {
		c.stores = append(c.stores, e.providers[pi])
	}
	return c
}

// expected lists the verdicts the server must return for the call, in the
// order it fans out: explicit stores first, then the UA's store, each
// snapshot once.
func (e *verifyEnv) expected(c verifyCall) []verdict {
	refs := append([]string(nil), c.stores...)
	if p := e.uaProv[c.ua]; p != "" {
		refs = append(refs, p)
	}
	var out []verdict
	seen := map[string]bool{}
	for _, p := range refs {
		if seen[p] {
			continue
		}
		seen[p] = true
		for pi, name := range e.providers {
			if name == p {
				out = append(out, e.want[c.leaf][pi])
			}
		}
	}
	return out
}

func (e *verifyEnv) body(c verifyCall, der bool) verifyBody {
	b := verifyBody{UserAgent: e.uas[c.ua], Stores: c.stores}
	if der {
		b.ChainDER = []string{base64.StdEncoding.EncodeToString(e.leaves[c.leaf].der)}
	} else {
		b.ChainPEM = e.leaves[c.leaf].pem
	}
	return b
}

// verifyOp builds a POST /v1/verify request for the next draw.
func (e *verifyEnv) verifyOp() *op {
	c := e.draw()
	body, _ := json.Marshal(e.body(c, false))
	want := e.expected(c)
	return &op{class: "verify", method: http.MethodPost, path: "/v1/verify", body: body,
		check: func(status int, _ string, b []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %.200s", status, b)
			}
			var resp struct {
				Verdicts []verdict `json:"verdicts"`
			}
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			return sameVerdicts(resp.Verdicts, want)
		}}
}

// batchOp builds a POST /v1/verify/batch request of n chain_der lines.
func (e *verifyEnv) batchOp(n int) *op {
	var sb strings.Builder
	want := make([][]verdict, n)
	for i := 0; i < n; i++ {
		c := e.draw()
		line, _ := json.Marshal(e.body(c, true))
		sb.Write(line)
		sb.WriteByte('\n')
		want[i] = e.expected(c)
	}
	return &op{class: "batch", method: http.MethodPost, path: "/v1/verify/batch", body: []byte(sb.String()),
		check: func(status int, _ string, b []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %.200s", status, b)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if len(lines) != n {
				return fmt.Errorf("%d verdict lines, want %d", len(lines), n)
			}
			for i, line := range lines {
				var row struct {
					Seq      int       `json:"seq"`
					Error    string    `json:"error"`
					Verdicts []verdict `json:"verdicts"`
				}
				if err := json.Unmarshal([]byte(line), &row); err != nil {
					return err
				}
				if row.Error != "" {
					return fmt.Errorf("line %d: %s", i, row.Error)
				}
				if err := sameVerdicts(row.Verdicts, want[i]); err != nil {
					return fmt.Errorf("line %d: %w", i, err)
				}
			}
			return nil
		}}
}

func sameVerdicts(got, want []verdict) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d verdicts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verdict %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// mixedOps builds n reference-phase requests: single verifies with a
// share of small batches.
func (e *verifyEnv) mixedOps(n int) []*op {
	ops := make([]*op, n)
	for i := range ops {
		if e.rng.Float64() < mixedBatchShare {
			ops[i] = e.batchOp(mixedBatchLines)
		} else {
			ops[i] = e.verifyOp()
		}
	}
	return ops
}

func (e *verifyEnv) opsAt(rate float64, d time.Duration) []*op {
	return e.mixedOps(max(1, int(rate*d.Seconds())))
}

// bulkOps builds the bulk phase's batches; the closed loop cycles them.
func (e *verifyEnv) bulkOps() []*op {
	ops := make([]*op, 32)
	for i := range ops {
		ops[i] = e.batchOp(bulkLines)
	}
	return ops
}

// warm makes the verifier cache (and, on the hot pool, the verdict cache)
// ready before timing: one request per leaf of the hot pool, or one for
// the cold pool, naming every provider.
func (e *verifyEnv) warm() error {
	n := len(e.leaves)
	if e.w.cycle {
		n = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for li := 0; li < n; li++ {
		body, _ := json.Marshal(verifyBody{ChainPEM: e.leaves[li].pem, Stores: e.providers})
		status, _, b, err := e.srv.fetch(client, http.MethodPost, "/v1/verify", body, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up verify: status %d: %.200s", status, b)
		}
	}
	return nil
}

func (w *verifyWorkload) run(r *run) error {
	e, err := w.setup(r)
	if err != nil {
		return err
	}
	defer e.srv.close()
	if err := e.warm(); err != nil {
		return err
	}
	conns := min(2, runtime.NumCPU())
	g := newGenerator(e.srv.base, conns)
	defer g.close()

	settle()
	warm := g.openLoop("warm", w.refRate, e.opsAt(w.refRate, r.seconds/20))
	checkAll(warm)
	r.count(warm, true)

	if r.traced {
		return w.runTraced(r, e, g)
	}
	// The reference and bulk phases run in interleaved slices, each pair
	// after a calibration sample, so the metrics and the host's speed they
	// are scaled by come from the same stretch of the run (see
	// calibrate.go).
	var refs, bulks []*phase
	bulkOps := e.bulkOps()
	settle()
	for c := 0; c < phaseSlices; c++ {
		if err := r.calibrate(1); err != nil {
			return err
		}
		ref := g.openLoop("ref", w.refRate, e.opsAt(w.refRate, r.seconds*12/20/phaseSlices))
		checkAll(ref)
		r.count(ref, true)
		refs = append(refs, ref)
		bulk := g.closedLoop("bulk", r.seconds*6/20/phaseSlices, bulkOps)
		checkAll(bulk)
		r.count(bulk, true)
		bulks = append(bulks, bulk)
	}
	ref, bulk := joinPhases(refs), joinPhases(bulks)
	gcCPU := ref.gcCPU + bulk.gcCPU
	shareGC(ref, bulk)
	r.extraf("collector CPU %s over the reference and bulk slices, %s of it charged to the reference slices by bytes allocated",
		gcCPU.Round(time.Millisecond), ref.gcCPU.Round(time.Millisecond))
	r.setLatency(ref, "verify")
	r.validity(ref, g)

	best, rungs := 0.0, 0
	settle()
	for _, rate := range w.ladder {
		rung := g.openLoop(fmt.Sprintf("rung%.0f", rate), rate, e.opsAt(rate, time.Duration(rungSeconds*float64(time.Second))))
		checkAll(rung)
		r.count(rung, false)
		rungs++
		lat := rung.latencies()
		p99, _, _ := tail(lat)
		ok := rung.failures() == 0 && p99 < sloLatency && !rung.backlogGrew() && rung.schedLagP99() <= maxSchedLag
		r.extraf("ladder %5.0f req/s: p99 %8.3f ms, %d failed, backlog grew %v, sched lag p99 %.3f ms -> %v",
			rate, ms(p99), rung.failures(), rung.backlogGrew(), ms(rung.schedLagP99()), passFail(ok))
		if !ok {
			break
		}
		best = float64(len(rung.samples)) / rung.lastEnd().Seconds()
	}
	r.extraf("%-16s %12.1f req/s  (achieved rate at the highest passing rung of %d tried; ladder %v)", "slo_rps", best, rungs, w.ladder)

	r.bulk(bulk)
	r.extraf("generator: %d connections opened by %d connection goroutines (nproc %d), reference dispatch lag p99 %.3f ms",
		g.dials.Load(), len(g.clients), runtime.NumCPU(), ms(ref.schedLagP99()))
	r.heap()
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// lastEnd is when the phase's last response arrived.
func (p *phase) lastEnd() time.Duration {
	var end time.Duration
	for i := range p.samples {
		end = max(end, p.samples[i].end)
	}
	return end
}

// validity marks the run invalid when the generator fell behind its
// schedule or opened more connections than it drives.
func (r *run) validity(p *phase, g *generator) {
	if lag := p.schedLagP99(); lag > maxSchedLag {
		r.invalid = append(r.invalid, fmt.Sprintf("generator fell behind: %s dispatch lag p99 %s > %s", p.name, lag, maxSchedLag))
	}
	if n := int(g.dials.Load()); n > runtime.NumCPU() || n > len(g.clients) {
		r.invalid = append(r.invalid, fmt.Sprintf("generator opened %d connections for %d connection goroutines (nproc %d)", n, len(g.clients), runtime.NumCPU()))
	}
}

// bulk records job_s, the median batch round trip over the joined bulk
// slices, and prints verdicts_per_s.
func (r *run) bulk(p *phase) {
	q := p.quiet(0.5)
	rows := len(p.samples) * bulkLines
	r.set("job_s", quantile(p.latencies(), 0.5).Seconds(), "median of %d bulk batches of %d chains in %d slices; %s median %.5f s",
		len(p.samples), bulkLines, phaseSlices, q, quantile(q.lat, 0.5).Seconds())
	r.extraf("%-16s %12.1f 1/s    (%d verdict rows in %s, one connection)", "verdicts_per_s", float64(rows)/p.elapsed.Seconds(), rows, p.elapsed.Round(time.Millisecond))
}

// runTraced is the traced run: the reference and bulk phases once
// untraced and once traced (their difference is the tracing overhead),
// then direct calls into each layer.
func (w *verifyWorkload) runTraced(r *run, e *verifyEnv, g *generator) error {
	settle()
	ref0 := g.openLoop("ref-untraced", w.refRate, e.opsAt(w.refRate, r.seconds*3/10))
	checkAll(ref0)
	r.count(ref0, true)

	before, err := scrapeCache(e.srv)
	if err != nil {
		return err
	}
	g.tr = r.tr
	e.srv.mw.tr.Store(r.tr)
	settle()
	ref1 := g.openLoop("ref", w.refRate, e.opsAt(w.refRate, r.seconds*3/10))
	after, err := scrapeCache(e.srv)
	if err != nil {
		return err
	}
	g.tr = nil
	e.srv.mw.tr.Store(nil)
	checkAll(ref1)
	r.count(ref1, true)

	settle()
	bulk0 := g.closedLoop("bulk-untraced", r.seconds/10, e.bulkOps())
	checkAll(bulk0)
	r.count(bulk0, true)
	g.tr = r.tr
	e.srv.mw.tr.Store(r.tr)
	settle()
	bulk1 := g.closedLoop("bulk", r.seconds/10, e.bulkOps())
	g.tr = nil
	e.srv.mw.tr.Store(nil)
	checkAll(bulk1)
	r.count(bulk1, true)

	r.set("client.sched_lag_p99_ms", ms(ref1.schedLagP99()), "n=%d", len(ref1.lag))
	r.set("client.conns_max", float64(g.dials.Load()), "goroutines %d, nproc %d", len(g.clients), runtime.NumCPU())
	r.validity(ref1, g)
	r.handlerLayer(ref1, "verify", "service.verify.handler")
	r.set("service.batch.handler_p50_us", us(quantile(sortedDurations(r.tr.named("service.handler", "batch")), 0.5)),
		"n=%d batches of %d chains", len(r.tr.named("service.handler", "batch")), bulkLines)
	r.transportLayer(ref1)
	r.set("service.verdict_cache.hit_ratio", after.ratio(before, "verdict"), "%s", after.note(before, "verdict"))
	r.set("service.verifier_cache.hit_ratio", after.ratio(before, "verifier"), "%s", after.note(before, "verifier"))
	r.runtimeLayer(ref1)
	r.overhead(ref0, ref1, bulk0, bulk1, "verify")

	// Direct calls on the workload's own inputs, after the load.
	var calls []verifyCall
	for i := 0; i < 2000; i++ {
		calls = append(calls, e.draw())
	}
	e.probeUserAgent(r, calls)
	e.probeVerify(r, calls)
	return probeLayers(r, e.eco, e.srv)
}

// probeUserAgent times useragent.Parse + MapToProvider on the calls' UAs.
func (e *verifyEnv) probeUserAgent(r *run, calls []verifyCall) {
	var ds []time.Duration
	for _, c := range calls {
		ua := e.uas[c.ua]
		ds = append(ds, r.tr.time("service.useragent_map", "", func() { useragent.MapToProvider(useragent.Parse(ua)) }))
	}
	r.set("service.useragent_map_us", us(quantile(sortedDurations(ds), 0.5)), "p50 of n=%d", len(ds))
}

// probeVerify times verify.New plus its pool build per latest snapshot,
// and Verifier.Verify on each (leaf, store) pair of the calls.
func (e *verifyEnv) probeVerify(r *run, calls []verifyCall) {
	verifiers := map[string]*verify.Verifier{}
	var builds []time.Duration
	for _, p := range e.providers {
		snap := e.latest[p]
		builds = append(builds, r.tr.time("verify.pool_build", p, func() {
			v := verify.New(snap)
			v.Pool(store.ServerAuth)
			verifiers[p] = v
		}))
	}
	var ds []time.Duration
	for _, c := range calls {
		for _, p := range c.stores {
			v, cert := verifiers[p], e.certs[c.leaf]
			ds = append(ds, r.tr.time("verify.chain", p, func() { v.Verify(verify.Request{Leaf: cert, Purpose: store.ServerAuth}) }))
		}
	}
	s := sortedDurations(ds)
	p99, pct, beyond := tail(s)
	r.set("verify.chain_p50_us", us(quantile(s, 0.5)), "n=%d", len(s))
	r.set("verify.chain_p99_us", us(p99), "p%.2f of n=%d, %d beyond", pct, len(s), beyond)
	r.set("verify.pool_build_ms", ms(medianDur(builds)), "median of %d snapshots", len(builds))
}

// handlerLayer records <prefix>_p50_us and _p99_us from the traced
// phase's handler spans of one route class.
func (r *run) handlerLayer(p *phase, class, prefix string) {
	spans := r.tr.byRequest("service.handler")
	var ds []time.Duration
	for i := range p.samples {
		if s, ok := spans[p.samples[i].id]; ok && s.Class == class {
			ds = append(ds, s.dur())
		}
	}
	s := sortedDurations(ds)
	p99, pct, beyond := tail(s)
	r.set(prefix+"_p50_us", us(quantile(s, 0.5)), "n=%d", len(s))
	if _, ok := r.values[prefix+"_p99_us"]; !ok && hasMetric(prefix+"_p99_us") {
		r.set(prefix+"_p99_us", us(p99), "p%.2f of n=%d, %d beyond", pct, len(s), beyond)
	}
}

func hasMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// transportLayer records the transport share of each traced request: its
// client span minus its handler span, and prints the attribution of
// client latency into queue wait, transport and handler.
func (r *run) transportLayer(p *phase) {
	handlers := r.tr.byRequest("service.handler")
	var transport []time.Duration
	var wait, trans, handler, total time.Duration
	for i := range p.samples {
		s := &p.samples[i]
		h, ok := handlers[s.id]
		if !ok || s.err != nil {
			continue
		}
		t := s.end - s.start - h.dur()
		transport = append(transport, t)
		wait += s.start - s.sched
		trans += t
		handler += h.dur()
		total += s.end - s.sched
	}
	sorted := sortedDurations(transport)
	p99, pct, beyond := tail(sorted)
	r.set("transport.p50_us", us(quantile(sorted, 0.5)), "n=%d", len(sorted))
	r.set("transport.p99_us", us(p99), "p%.2f of n=%d, %d beyond", pct, len(sorted), beyond)
	r.rowf("client latency of %d traced requests: queue wait %.1f%%, transport %.1f%%, handler %.1f%%",
		len(sorted), 100*ratio(float64(wait), float64(total)), 100*ratio(float64(trans), float64(total)), 100*ratio(float64(handler), float64(total)))
}

// overhead prints traced-minus-untraced end-to-end numbers.
func (r *run) overhead(ref0, ref1, bulk0, bulk1 *phase, classes ...string) {
	l0, l1 := ref0.latencies(classes...), ref1.latencies(classes...)
	for _, q := range []float64{0.5, 0.9} {
		v0, v1 := quantile(l0, q), quantile(l1, q)
		r.rowf("tracing overhead latency_p%.0f_ms: %+.4f (untraced %.4f, traced %.4f; whole phases)", 100*q, ms(v1-v0), ms(v0), ms(v1))
	}
	c0, c1 := ms(ref0.cpu)/float64(len(ref0.samples)), ms(ref1.cpu)/float64(len(ref1.samples))
	r.rowf("tracing overhead cpu_ms_per_op: %+.4f (untraced %.4f, traced %.4f)", c1-c0, c0, c1)
	if bulk0 != nil && bulk1 != nil {
		j0, j1 := medianDur(rtts(bulk0)).Seconds(), medianDur(rtts(bulk1)).Seconds()
		r.rowf("tracing overhead job_s: %+.5f (untraced %.5f, traced %.5f)", j1-j0, j0, j1)
	}
}

func rtts(p *phase) []time.Duration {
	var out []time.Duration
	for i := range p.samples {
		out = append(out, p.samples[i].end-p.samples[i].start)
	}
	return out
}

// cacheCounters is the cache section of trustd's /metrics.
type cacheCounters map[string]float64

func scrapeCache(s *server) (cacheCounters, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	status, _, b, err := s.fetch(client, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", status)
	}
	var m struct {
		Cache cacheCounters `json:"cache"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	if m.Cache == nil {
		return nil, errors.New("/metrics has no cache section")
	}
	return m.Cache, nil
}

// ratio is the hit ratio of one cache between two scrapes.
func (c cacheCounters) ratio(before cacheCounters, name string) float64 {
	hits := c[name+"_hits"] - before[name+"_hits"]
	misses := c[name+"_misses"] - before[name+"_misses"]
	return ratio(hits, hits+misses)
}

func (c cacheCounters) note(before cacheCounters, name string) string {
	hits := c[name+"_hits"] - before[name+"_hits"]
	misses := c[name+"_misses"] - before[name+"_misses"]
	return fmt.Sprintf("%.0f hits, %.0f misses", hits, misses)
}
