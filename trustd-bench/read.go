package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/certutil"
	"repro/internal/store"
	"repro/internal/synth"
)

const (
	// readRefRate is read-reload's fixed open-loop rate.
	readRefRate = 400
	// swapEvery spaces the hot swaps of a load phase: one per interval,
	// evenly spread, at least one. A swap costs a few hundred milliseconds
	// of CPU, so closer swaps would overlap.
	swapEvery = 1500 * time.Millisecond
	// readRoots, readDiffs and readEvents size the read mix. They are large
	// enough that the mix's cost hardly depends on which ones the seed
	// draws.
	readRoots  = 256
	readDiffs  = 128
	readEvents = 128
	// conditionalShare of the revalidatable GETs carry If-None-Match with
	// one of the two generations' ETags, chosen at random.
	conditionalShare = 0.3
)

// readTemplate is one distinct read request with the body each generation
// answered it with at set-up.
type readTemplate struct {
	class  string // read, simulate, sweep
	method string
	path   string
	body   []byte
	cond   bool      // the route honours If-None-Match
	want   [2]string // body digest per generation
}

// readEnv is a set-up read-reload workload: two generations as archives,
// a live server, and the read oracle.
type readEnv struct {
	eco      *synth.Ecosystem
	srv      *server
	archives [2][]byte
	hashes   [2]string // X-Rootpack-Hash of each generation
	etags    [2]string
	epoch    uint64
	tmpls    []*readTemplate
	weights  []float64
	rng      *rand.Rand
}

func runReadReload(r *run) error {
	e, err := setupRead(r)
	if err != nil {
		return err
	}
	defer e.srv.close()
	g := newGenerator(e.srv.base, min(2, runtime.NumCPU()))
	defer g.close()

	settle()
	warm := g.openLoop("warm", readRefRate, e.ops(readRefRate, r.seconds/20))
	checkAll(warm)
	r.count(warm, true)

	if r.traced {
		return e.runTraced(r, g)
	}
	p, swaps := e.phase(g, nil, "ref", r.seconds*9/10)
	r.count(p, true)
	r.setLatency(p)
	r.validity(p, g)
	r.extraf("generator: %d connections opened by %d connection goroutines (nproc %d), dispatch lag p99 %.3f ms",
		g.dials.Load(), len(g.clients), runtime.NumCPU(), ms(p.schedLagP99()))
	e.reloads(r, p, swaps)
	r.heap()
	return nil
}

func setupRead(r *run) (*readEnv, error) {
	e, times, err := repeatSetup(setupRepeats, func() (*readEnv, error) {
		eco, err := generate()
		if err != nil {
			return nil, err
		}
		dbB, _, err := withoutRoot(eco.DB)
		if err != nil {
			return nil, err
		}
		e := &readEnv{eco: eco, epoch: 1}
		for i, db := range []*store.Database{eco.DB, dbB} {
			data, h, err := encodeArchive(db)
			if err != nil {
				return nil, err
			}
			e.archives[i] = data
			e.hashes[i] = fmt.Sprintf("%x", h)
		}
		if e.srv, err = boot(eco.DB); err != nil {
			return nil, err
		}
		return e, nil
	}, func(e *readEnv) { e.srv.close() })
	if err != nil {
		return nil, err
	}
	r.setup(times)
	return e, e.buildOracle(r.seed)
}

// buildOracle draws the read templates from the corpus and records each
// template's body under both generations: it reads everything on
// generation A, swaps to B and reads again, then swaps back to A.
func (e *readEnv) buildOracle(seed int64) error {
	e.rng = rand.New(rand.NewPCG(uint64(seed), 0x72656164))
	var err error
	if e.tmpls, e.weights, err = drawReadTemplates(e.eco.DB, e.rng); err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	for gi := 0; gi < 2; gi++ {
		if gi == 1 {
			if err := e.swap(nil, 1); err != nil {
				return err
			}
		}
		for _, t := range e.tmpls {
			status, gen, body, err := e.srv.fetch(client, t.method, t.path, t.body, "")
			if err != nil {
				return err
			}
			if status != http.StatusOK || gen != e.hashes[gi] {
				return fmt.Errorf("set-up read %s %s on generation %d: status %d, X-Rootpack-Hash %.12s (want %.12s): %.200s", t.method, t.path, gi, status, gen, e.hashes[gi], body)
			}
			t.want[gi] = digest(normalize(t.class, body))
		}
		status, _, _, err := e.srv.fetch(client, http.MethodGet, "/v1/providers", nil, "*")
		if err != nil || status != http.StatusNotModified {
			return fmt.Errorf("set-up revalidation on generation %d: status %d, %v", gi, status, err)
		}
		req, _ := http.NewRequest(http.MethodGet, e.srv.base+"/v1/providers", nil)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		e.etags[gi] = resp.Header.Get("ETag")
	}
	if e.etags[0] == "" || e.etags[0] == e.etags[1] {
		return fmt.Errorf("generations need distinct ETags, got %q and %q", e.etags[0], e.etags[1])
	}
	return e.swap(nil, 0)
}

// drawReadTemplates draws the read mix from db: the provider list, every
// provider's snapshot list, roots of the index, diffs between snapshots,
// what-if events and the sweep, with their traffic weights.
// Every template resolves on db and on withoutRoot(db).
func drawReadTemplates(db *store.Database, rng *rand.Rand) ([]*readTemplate, []float64, error) {
	var (
		tmpls   []*readTemplate
		weights []float64
	)
	add := func(class string, weight float64, method, path string, body []byte, cond bool) {
		tmpls = append(tmpls, &readTemplate{class: class, method: method, path: path, body: body, cond: cond})
		weights = append(weights, weight)
	}
	providers := db.Providers()
	all := db.AllSnapshots()
	fps := rootFingerprints(db)
	add("read", 0.05, http.MethodGet, "/v1/providers", nil, true)
	for _, p := range providers {
		add("read", 0.15/float64(len(providers)), http.MethodGet, "/v1/providers/"+p+"/snapshots", nil, false)
	}
	for i := 0; i < readRoots; i++ {
		add("read", 0.40/readRoots, http.MethodGet, "/v1/roots/"+fps[rng.IntN(len(fps))], nil, true)
	}
	for i := 0; i < readDiffs; i++ {
		a, b := all[rng.IntN(len(all))], all[rng.IntN(len(all))]
		q := url.Values{"a": {a.Provider + "@" + a.Version}, "b": {b.Provider + "@" + b.Version}}
		add("read", 0.25/readDiffs, http.MethodGet, "/v1/diff?"+q.Encode(), nil, true)
	}
	_, dropped, err := withoutRoot(db)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < readEvents; i++ {
		p := providers[rng.IntN(len(providers))]
		var trusted []string
		for _, en := range db.History(p).Latest().Entries() {
			if en.TrustedFor(store.ServerAuth) && en.Fingerprint != dropped {
				trusted = append(trusted, en.Fingerprint.String())
			}
		}
		kind := "removal"
		if i%2 == 1 {
			kind = "distrust-after"
		}
		body, _ := json.Marshal(map[string]any{"kind": kind, "store": p, "fingerprints": []string{trusted[rng.IntN(len(trusted))]}})
		add("simulate", 0.10/readEvents, http.MethodPost, "/v1/simulate", body, false)
	}
	add("sweep", 0.05, http.MethodGet, "/v1/simulate/sweep", nil, true)
	return tmpls, weights, nil
}

// rootFingerprints lists every root of the corpus, sorted.
func rootFingerprints(db *store.Database) []string {
	seen := map[certutil.Fingerprint]bool{}
	var out []string
	for _, snap := range db.AllSnapshots() {
		for _, en := range snap.Entries() {
			if !seen[en.Fingerprint] {
				seen[en.Fingerprint] = true
				out = append(out, en.Fingerprint.String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// normalize drops the sweep's build_ms, the one field of a read body that
// is a timing rather than a function of the generation.
func normalize(class string, body []byte) []byte {
	if class != "sweep" {
		return body
	}
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	delete(m, "build_ms")
	out, _ := json.Marshal(m)
	return out
}

// swap reloads generation gi from its archive bytes: content-hash check,
// decode, SwapArchive — the three steps a replica's reload runs.
func (e *readEnv) swap(tr *tracer, gi int) error {
	db, hash, err := decodeArchive(tr, e.archives[gi])
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%x", hash); got != e.hashes[gi] {
		return fmt.Errorf("archive %d content hash %s, want %s", gi, got, e.hashes[gi])
	}
	e.epoch++
	tr.time("service.swap_archive", "", func() { e.srv.srv.SwapArchive(db, hash, e.epoch) })
	return nil
}

// ops draws the open-loop requests of a phase at rate for d.
func (e *readEnv) ops(rate float64, d time.Duration) []*op {
	n := max(1, int(rate*d.Seconds()))
	out := make([]*op, n)
	for i := range out {
		out[i] = e.op(e.pick())
	}
	return out
}

func (e *readEnv) pick() *readTemplate {
	x := e.rng.Float64()
	for i, w := range e.weights {
		if x < w {
			return e.tmpls[i]
		}
		x -= w
	}
	return e.tmpls[len(e.tmpls)-1]
}

// op turns a template into a request; revalidatable reads sometimes carry
// one generation's ETag. The check accepts a response only when its
// X-Rootpack-Hash names one of the two generations and its body (or its
// 304) is what that generation answered at set-up — anything else is a
// mixed-generation response.
func (e *readEnv) op(t *readTemplate) *op {
	o := &op{class: t.class, method: t.method, path: t.path, body: t.body}
	if t.cond && e.rng.Float64() < conditionalShare {
		o.inm = e.etags[e.rng.IntN(2)]
	}
	o.check = func(status int, gen string, body []byte) error {
		gi := -1
		for i, h := range e.hashes {
			if gen == h {
				gi = i
			}
		}
		if gi < 0 {
			return fmt.Errorf("X-Rootpack-Hash %.12q names neither generation", gen)
		}
		switch {
		case status == http.StatusNotModified && o.inm == e.etags[gi]:
			return nil
		case status != http.StatusOK:
			return fmt.Errorf("status %d on generation %d (If-None-Match %q): %.200s", status, gi, o.inm, body)
		case digest(normalize(t.class, body)) != t.want[gi]:
			return fmt.Errorf("body differs from generation %d's set-up body: mixed-generation response", gi)
		}
		return nil
	}
	return o
}

// swapRecord is one hot swap during a phase, in absolute time.
type swapRecord struct {
	gi               int
	start, installed time.Time
}

// phase runs the open loop for d while evenly spaced reloads alternate
// the generation.
func (e *readEnv) phase(g *generator, tr *tracer, name string, d time.Duration) (*phase, []swapRecord) {
	ops := e.ops(readRefRate, d)
	var (
		swaps []swapRecord
		wg    sync.WaitGroup
		err   error
	)
	cur := 0
	n := max(1, int(d/swapEvery))
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(n+1))))
			cur = 1 - cur
			rec := swapRecord{gi: cur, start: time.Now()}
			if err = e.swap(tr, cur); err != nil {
				return
			}
			rec.installed = time.Now()
			swaps = append(swaps, rec)
		}
	}()
	settle()
	p := g.openLoop(name, readRefRate, ops)
	wg.Wait()
	if err != nil {
		p.samples = append(p.samples, sample{op: &op{class: "reload", method: "RELOAD"}, err: err})
	}
	// Leave the server on generation A for the next phase.
	if cur == 1 {
		if err := e.swap(nil, 0); err != nil {
			p.samples = append(p.samples, sample{op: &op{class: "reload", method: "RELOAD"}, err: err})
		}
	}
	checkAll(p)
	return p, swaps
}

// reloads records job_s as the median reload time: from archive bytes in
// hand to the first response stamped with the new generation. It also
// checks that every swap was observed and both generations served.
func (e *readEnv) reloads(r *run, p *phase, swaps []swapRecord) []time.Duration {
	var ds []time.Duration
	served := [2]int{}
	for i := range p.samples {
		for gi, h := range e.hashes {
			if p.samples[i].gen == h {
				served[gi]++
			}
		}
	}
	for k, sw := range swaps {
		var lower time.Time
		if k > 0 {
			lower = swaps[k-1].installed
		}
		first := time.Time{}
		for i := range p.samples {
			s := &p.samples[i]
			startAt, endAt := p.t0.Add(s.start), p.t0.Add(s.end)
			if s.gen == e.hashes[sw.gi] && endAt.After(sw.start) && startAt.After(lower) && (first.IsZero() || endAt.Before(first)) {
				first = endAt
			}
		}
		if first.IsZero() {
			r.fail(fmt.Errorf("reload %d to generation %d was never observed", k, sw.gi))
			continue
		}
		ds = append(ds, first.Sub(sw.start))
	}
	if served[0] == 0 || served[1] == 0 {
		r.fail(fmt.Errorf("both generations must serve traffic, saw %v", served))
	}
	r.set("job_s", quietDur(ds).Seconds(), "median of the quickest %d of %d reloads", quietShare(len(ds)), len(ds))
	r.extraf("%-16s %12.4f s      (%s phase: median of %d reloads %v)", "reload_s", medianDur(ds).Seconds(), p.name, len(ds), roundAll(ds))
	r.extraf("generations served in the %s phase: A %d, B %d responses", p.name, served[0], served[1])
	return ds
}

// runTraced runs the phase untraced and traced (their difference is the
// tracing overhead), then direct calls into each layer.
func (e *readEnv) runTraced(r *run, g *generator) error {
	p0, swaps0 := e.phase(g, nil, "ref-untraced", r.seconds*9/20)
	r.count(p0, true)
	reload0 := e.reloads(r, p0, swaps0)

	g.tr = r.tr
	e.srv.mw.tr.Store(r.tr)
	p1, swaps1 := e.phase(g, r.tr, "ref", r.seconds*9/20)
	g.tr = nil
	e.srv.mw.tr.Store(nil)
	r.count(p1, true)
	reload1 := e.reloads(r, p1, swaps1)

	r.set("client.sched_lag_p99_ms", ms(p1.schedLagP99()), "n=%d", len(p1.lag))
	r.set("client.conns_max", float64(g.dials.Load()), "goroutines %d, nproc %d", len(g.clients), runtime.NumCPU())
	r.validity(p1, g)
	r.handlerLayer(p1, "read", "service.read.handler")
	r.handlerLayer(p1, "simulate", "service.simulate.handler")
	r.transportLayer(p1)
	cond, notMod := 0, 0
	for i := range p1.samples {
		if p1.samples[i].op.inm != "" {
			cond++
			if p1.samples[i].status == http.StatusNotModified {
				notMod++
			}
		}
	}
	r.set("service.not_modified_ratio", ratio(float64(notMod), float64(cond)), "%d of %d conditional requests", notMod, cond)
	hash, decode, swp := r.tr.named("archive.verify_hash", ""), r.tr.named("archive.decode", ""), r.tr.named("service.swap_archive", "")
	r.set("archive.verify_hash_ms", ms(medianDur(hash)), "median of %d reloads under load", len(hash))
	r.set("archive.decode_ms", ms(medianDur(decode)), "median of %d reloads under load", len(decode))
	r.set("service.swap_ms", ms(medianDur(swp)), "median of %d reloads under load", len(swp))
	r.firstSimulateAfterSwap(p1, swaps1)
	r.runtimeLayer(p1)

	var covered, total time.Duration
	for k := range reload1 {
		if k < len(hash) && k < len(decode) && k < len(swp) {
			covered += hash[k] + decode[k] + swp[k]
			total += reload1[k]
		}
	}
	r.rowf("reload_s of %d traced reloads: hash+decode+swap %.1f%%, unattributed %.1f%%",
		len(reload1), 100*ratio(float64(covered), float64(total)), 100*(1-ratio(float64(covered), float64(total))))
	r.overhead(p0, p1, nil, nil)
	r.rowf("tracing overhead job_s: %+.5f (untraced %.5f, traced %.5f)",
		medianDur(reload1).Seconds()-medianDur(reload0).Seconds(), medianDur(reload0).Seconds(), medianDur(reload1).Seconds())
	return probeLayers(r, e.eco, e.srv)
}

// firstSimulateAfterSwap records the median handler time of the first
// /v1/simulate request served by each new generation: it pays for the
// generation's lazily built what-if engine.
func (r *run) firstSimulateAfterSwap(p *phase, swaps []swapRecord) {
	handlers := r.tr.byRequest("service.handler")
	var ds []time.Duration
	for _, sw := range swaps {
		var best *span
		for i := range p.samples {
			s := &p.samples[i]
			h, ok := handlers[s.id]
			if !ok || h.Class != "simulate" || r.tr.epoch.Add(time.Duration(h.Start)).Before(sw.installed) {
				continue
			}
			if best == nil || h.Start < best.Start {
				hh := h
				best = &hh
			}
		}
		if best != nil {
			ds = append(ds, best.dur())
		}
	}
	r.set("service.first_simulate_after_swap_ms", ms(medianDur(ds)), "median of %d swaps", len(ds))
}
