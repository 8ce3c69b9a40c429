package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifacts"
	"repro/internal/catalog"
	"repro/internal/certutil"
	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/service"
	"repro/internal/setdist"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/useragent"
)

const (
	// probeRate and probeSeconds size the traced request probe that covers
	// the routes a workload's own load does not send.
	probeRate    = 200
	probeSeconds = 1
	// probeRepeats is how often each direct layer call is repeated.
	probeRepeats = 3
)

// probeLayers runs after a traced run's load phases. It measures every
// per-layer metric the load did not, by direct calls into each layer's
// public function on the run's corpus, plus a short traced request probe
// for the service routes the workload's traffic never hit. Metrics already
// recorded are left alone, so a workload's own numbers always win.
func probeLayers(r *run, eco *synth.Ecosystem, srv *server) error {
	db := eco.DB
	missing := func(names ...string) bool {
		for _, n := range names {
			if _, ok := r.values[n]; !ok {
				return true
			}
		}
		return false
	}
	repeat := func(name string, fn func()) time.Duration {
		var ds []time.Duration
		for i := 0; i < probeRepeats; i++ {
			ds = append(ds, r.tr.time(name, "probe", fn))
		}
		return medianDur(ds)
	}

	if missing("service.build_index_ms") {
		d := repeat("service.build_index", func() { service.BuildIndex(db) })
		r.set("service.build_index_ms", ms(d), "median of %d direct calls", probeRepeats)
	}

	data, _, err := encodeArchive(db)
	if err != nil {
		return err
	}
	if missing("archive.verify_hash_ms", "archive.decode_ms") {
		for i := 0; i < probeRepeats; i++ {
			if _, _, err := decodeArchive(r.tr, data); err != nil {
				return err
			}
		}
		r.set("archive.verify_hash_ms", ms(medianDur(r.tr.named("archive.verify_hash", ""))), "median of %d direct calls", probeRepeats)
		r.set("archive.decode_ms", ms(medianDur(r.tr.named("archive.decode", ""))), "median of %d direct calls", probeRepeats)
	}

	if missing("simulate.engine_build_ms", "simulate.sweep_ms", "simulate.event_us") {
		var engine *simulate.Engine
		r.set("simulate.engine_build_ms", ms(repeat("simulate.engine_build", func() { engine = simulate.New(db, simulate.Options{}) })), "median of %d direct calls", probeRepeats)
		r.set("simulate.sweep_ms", ms(repeat("simulate.sweep", func() { engine.Sweep(0) })), "median of %d direct calls", probeRepeats)
		var ds []time.Duration
		for _, ev := range probeEvents(db) {
			ev := ev
			var err error
			ds = append(ds, r.tr.time("simulate.event", "probe", func() { _, err = engine.Simulate(ev) }))
			if err != nil {
				r.fail(fmt.Errorf("simulate %s on %s: %w", ev.Kind, ev.Provider, err))
			}
		}
		r.set("simulate.event_us", us(quantile(sortedDurations(ds), 0.5)), "p50 of %d events", len(ds))
	}

	if missing("catalog.load_tree_ms", "catalog.snapshots") {
		if err := probeCatalog(r, db); err != nil {
			return err
		}
	}

	if missing("setdist.matrix_ms", "mds.ordination_ms") {
		snaps := ordinationSnapshots(db)
		cfg := core.DefaultOrdinationConfig()
		var dist = setdist.DistanceMatrixWith(snaps, store.ServerAuth, cfg.Metric)
		r.set("setdist.matrix_ms", ms(repeat("setdist.matrix", func() { dist = setdist.DistanceMatrixWith(snaps, store.ServerAuth, cfg.Metric) })),
			"median of %d direct calls on %d snapshots", probeRepeats, len(snaps))
		var err error
		r.set("mds.ordination_ms", ms(repeat("mds.ordination", func() { _, err = mds.SMACOF(dist, mds.Config{Dims: 2}) })),
			"median of %d direct calls", probeRepeats)
		if err != nil {
			return err
		}
	}

	if missing("artifacts.table1_ms") {
		if _, _, err := renderAll(r.tr, artifacts.NewContext(eco)); err != nil {
			return err
		}
		for _, a := range paperArtifacts {
			r.set("artifacts."+a.name+"_ms", ms(medianDur(r.tr.named("artifacts."+a.name, ""))), "one direct render")
		}
	}

	if missing("service.useragent_map_us") {
		var ds []time.Duration
		for i := 0; i < probeRepeats; i++ {
			for _, ua := range useragent.Generate(useragent.PaperSample()) {
				ds = append(ds, r.tr.time("service.useragent_map", "probe", func() { useragent.MapToProvider(useragent.Parse(ua)) }))
			}
		}
		r.set("service.useragent_map_us", us(quantile(sortedDurations(ds), 0.5)), "p50 of %d calls over the Table 1 population", len(ds))
	}

	// The service probe needs a live server; paper-pipeline has none, so
	// one is booted over its ingested corpus.
	if srv == nil {
		var err error
		if srv, err = boot(db); err != nil {
			return err
		}
		defer srv.close()
	}
	leaves, err := mintLeaves(eco, r.seed, "probe", 16)
	if err != nil {
		return err
	}
	ve := &verifyEnv{w: &verifyHot, eco: eco, leaves: leaves, srv: srv}
	if err := ve.buildOracle(r.seed); err != nil {
		return err
	}
	if missing("verify.chain_p50_us", "verify.chain_p99_us", "verify.pool_build_ms") {
		var calls []verifyCall
		for i := 0; i < 2000; i++ {
			calls = append(calls, ve.draw())
		}
		ve.probeVerify(r, calls)
	}
	if err := probeRequests(r, ve, srv); err != nil {
		return err
	}

	if missing("service.swap_ms", "service.first_simulate_after_swap_ms") {
		db2, hash, err := decodeArchive(nil, data)
		if err != nil {
			return err
		}
		_, epoch := srv.srv.Generation()
		r.set("service.swap_ms", ms(r.tr.time("service.swap_archive", "probe", func() { srv.srv.SwapArchive(db2, hash, epoch+1) })), "one direct call")
		client := &http.Client{Timeout: 60 * time.Second}
		defer client.CloseIdleConnections()
		ev := probeEvents(db)[0]
		body := fmt.Sprintf(`{"kind":%q,"store":%q,"fingerprints":[%q]}`, ev.Kind, ev.Provider, ev.Fingerprints[0].String())
		var status int
		d := r.tr.time("service.first_simulate_after_swap", "probe", func() {
			status, _, _, err = srv.fetch(client, http.MethodPost, "/v1/simulate", []byte(body), "")
		})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			r.fail(fmt.Errorf("first simulate after swap: %w", err))
		}
		r.set("service.first_simulate_after_swap_ms", ms(d), "one request after a direct swap")
	}
	return nil
}

// probeEvents are what-if removals of one trusted root per provider.
func probeEvents(db *store.Database) []simulate.Event {
	var evs []simulate.Event
	for _, p := range db.Providers() {
		for _, e := range db.History(p).Latest().Entries() {
			if e.TrustedFor(store.ServerAuth) {
				evs = append(evs, simulate.Event{Kind: simulate.KindRemoval, Provider: p, Fingerprints: []certutil.Fingerprint{e.Fingerprint}})
				break
			}
		}
	}
	return evs
}

// probeCatalog writes each provider's latest snapshot as a native tree and
// times catalog.LoadTree over it.
func probeCatalog(r *run, db *store.Database) error {
	root := filepath.Join(".bench_build", "trustd-bench", fmt.Sprintf("probe-tree-%d-%d", r.seed, os.Getpid()))
	defer os.RemoveAll(root)
	latest := store.NewDatabase()
	for _, p := range db.Providers() {
		if err := latest.AddSnapshot(db.History(p).Latest().ShareClone()); err != nil {
			return err
		}
	}
	if err := writeTree(root, latest); err != nil {
		return err
	}
	var (
		got *store.Database
		err error
		ds  []time.Duration
	)
	for i := 0; i < probeRepeats; i++ {
		ds = append(ds, r.tr.time("catalog.load_tree", "probe", func() { got, err = catalog.LoadTree(root, catalog.Options{Archive: catalog.ArchiveOff}) }))
		if err != nil {
			return err
		}
	}
	if err := sameCorpus(got, latest); err != nil {
		r.fail(fmt.Errorf("probe tree: %w", err))
	}
	r.set("catalog.load_tree_ms", ms(medianDur(ds)), "median of %d loads of each provider's latest snapshot", probeRepeats)
	r.set("catalog.snapshots", float64(got.TotalSnapshots()), "probe tree")
	return nil
}

// ordinationSnapshots selects Figure 1's snapshots the way the ordination
// does: each provider's distinct trust states inside the 2011–2021 window.
func ordinationSnapshots(db *store.Database) []*store.Snapshot {
	cfg := core.DefaultOrdinationConfig()
	pipe := core.New(db)
	var out []*store.Snapshot
	for _, p := range db.Providers() {
		byVersion := map[string]*store.Snapshot{}
		for _, s := range db.History(p).Snapshots() {
			byVersion[s.Version] = s
		}
		for _, st := range pipe.UniqueStates(p) {
			if st.Date.Before(cfg.From) || st.Date.After(cfg.To) {
				continue
			}
			if s, ok := byVersion[st.Snapshot.Version]; ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// probeRequests sends a short traced open loop covering every service
// route — verify, batch, reads with and without If-None-Match, simulate,
// sweep — and records the service, transport and client metrics the
// workload's own load did not.
func probeRequests(r *run, ve *verifyEnv, srv *server) error {
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x70726f6265))
	tmpls, _, err := drawReadTemplates(ve.eco.DB, rng)
	if err != nil {
		return err
	}
	hash, _ := srv.srv.Generation()
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	var etag string
	for _, t := range tmpls {
		status, gen, body, err := srv.fetch(client, t.method, t.path, t.body, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK || gen != hash {
			return fmt.Errorf("probe read %s %s: status %d, generation %.12s: %.200s", t.method, t.path, status, gen, body)
		}
		t.want[0] = digest(normalize(t.class, body))
	}
	req, _ := http.NewRequest(http.MethodGet, srv.base+"/v1/providers", nil)
	if resp, err := client.Do(req); err == nil {
		etag = resp.Header.Get("ETag")
		resp.Body.Close()
	}

	n := probeRate * probeSeconds
	ops := make([]*op, n)
	for i := range ops {
		switch i % 10 {
		case 0, 1, 2:
			ops[i] = ve.verifyOp()
		case 3:
			ops[i] = ve.batchOp(mixedBatchLines)
		default:
			t := tmpls[rng.IntN(len(tmpls))]
			o := &op{class: t.class, method: t.method, path: t.path, body: t.body}
			if t.cond && i%2 == 0 {
				o.inm = etag
			}
			want := t.want[0]
			o.check = func(status int, gen string, body []byte) error {
				switch {
				case gen != hash:
					return fmt.Errorf("X-Rootpack-Hash %.12q, want %.12q", gen, hash)
				case status == http.StatusNotModified && o.inm != "":
					return nil
				case status != http.StatusOK:
					return fmt.Errorf("status %d: %.200s", status, body)
				case digest(normalize(t.class, body)) != want:
					return fmt.Errorf("body differs from the probe's set-up body")
				}
				return nil
			}
			ops[i] = o
		}
	}
	before, err := scrapeCache(srv)
	if err != nil {
		return err
	}
	g := newGenerator(srv.base, min(2, runtime.NumCPU()))
	defer g.close()
	g.tr = r.tr
	srv.mw.tr.Store(r.tr)
	settle()
	p := g.openLoop("probe", probeRate, ops)
	srv.mw.tr.Store(nil)
	after, err := scrapeCache(srv)
	if err != nil {
		return err
	}
	checkAll(p)
	r.count(p, true)

	setIfMissing := func(name string, fn func()) {
		if _, ok := r.values[name]; !ok {
			fn()
		}
	}
	setIfMissing("client.sched_lag_p99_ms", func() { r.set("client.sched_lag_p99_ms", ms(p.schedLagP99()), "probe, n=%d", len(p.lag)) })
	setIfMissing("client.conns_max", func() {
		r.set("client.conns_max", float64(g.dials.Load()), "probe, goroutines %d, nproc %d", len(g.clients), runtime.NumCPU())
	})
	setIfMissing("transport.p50_us", func() { r.transportLayer(p) })
	for _, c := range []struct{ class, prefix string }{
		{"verify", "service.verify.handler"},
		{"batch", "service.batch.handler"},
		{"read", "service.read.handler"},
		{"simulate", "service.simulate.handler"},
	} {
		setIfMissing(c.prefix+"_p50_us", func() { r.handlerLayer(p, c.class, c.prefix) })
	}
	setIfMissing("service.verdict_cache.hit_ratio", func() {
		r.set("service.verdict_cache.hit_ratio", after.ratio(before, "verdict"), "probe, %s", after.note(before, "verdict"))
	})
	setIfMissing("service.verifier_cache.hit_ratio", func() {
		r.set("service.verifier_cache.hit_ratio", after.ratio(before, "verifier"), "probe, %s", after.note(before, "verifier"))
	})
	setIfMissing("service.not_modified_ratio", func() {
		cond, notMod := 0, 0
		for i := range p.samples {
			if p.samples[i].op.inm != "" {
				cond++
				if p.samples[i].status == http.StatusNotModified {
					notMod++
				}
			}
		}
		r.set("service.not_modified_ratio", ratio(float64(notMod), float64(cond)), "probe, %d of %d conditional requests", notMod, cond)
	})
	return nil
}
