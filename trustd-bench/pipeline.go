package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifacts"
	"repro/internal/catalog"
	"repro/internal/store"
	"repro/internal/synth"
)

// artifact is one of the paper's eleven tables and figures.
type artifact struct {
	name   string
	render func(*artifacts.Context) func(io.Writer) error
}

var paperArtifacts = []artifact{
	{"table1", func(c *artifacts.Context) func(io.Writer) error { return c.Table1 }},
	{"table2", func(c *artifacts.Context) func(io.Writer) error { return c.Table2 }},
	{"figure1", func(c *artifacts.Context) func(io.Writer) error { return c.Figure1 }},
	{"figure2", func(c *artifacts.Context) func(io.Writer) error { return c.Figure2 }},
	{"table3", func(c *artifacts.Context) func(io.Writer) error { return c.Table3 }},
	{"table4", func(c *artifacts.Context) func(io.Writer) error { return c.Table4 }},
	{"figure3", func(c *artifacts.Context) func(io.Writer) error { return c.Figure3 }},
	{"figure4", func(c *artifacts.Context) func(io.Writer) error { return c.Figure4 }},
	{"table5", func(c *artifacts.Context) func(io.Writer) error { return c.Table5 }},
	{"table6", func(c *artifacts.Context) func(io.Writer) error { return c.Table6 }},
	{"table7", func(c *artifacts.Context) func(io.Writer) error { return c.Table7 }},
}

// renderAll renders every artifact in paper order (the order RenderAll
// uses), timing each under a span. It returns each artifact's digest and
// the total render time.
func renderAll(tr *tracer, ctx *artifacts.Context) (digests []string, total time.Duration, err error) {
	var buf bytes.Buffer
	for _, a := range paperArtifacts {
		buf.Reset()
		total += tr.time("artifacts."+a.name, "", func() { err = a.render(ctx)(&buf) })
		if err != nil {
			return nil, 0, fmt.Errorf("render %s: %w", a.name, err)
		}
		digests = append(digests, digest(buf.Bytes()))
	}
	return digests, total, nil
}

// pipelineEnv is a set-up paper-pipeline workload: the corpus, its native
// tree on disk and the oracle digests.
type pipelineEnv struct {
	eco  *synth.Ecosystem
	tree string
	want []string // artifact digests rendered from the generated corpus
}

// treeDir is where the native tree is written, inside the checkout.
const treeDir = ".bench_build/trustd-bench/tree"

// ensureTree writes db's native tree unless the tree on disk was written
// by this very build, as a stamp holding the digest of the running
// executable records. The corpus and the writers are fixed by the build,
// so the tree is written once per checkout and build: writing its tens of
// thousands of files takes 10–40 s on the reference host, more than the
// whole measured phase, and would not fit the benchmark's time budget on
// every set-up. A stale or damaged tree still fails the ingest check.
func ensureTree(db *store.Database) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	stampFile := filepath.Join(treeDir, ".written-by")
	stamp := digest(bin)
	if old, err := os.ReadFile(stampFile); err == nil && string(old) == stamp {
		return nil
	}
	if err := os.RemoveAll(treeDir); err != nil {
		return err
	}
	if err := writeTree(treeDir, db); err != nil {
		return err
	}
	return os.WriteFile(stampFile, []byte(stamp), 0o644)
}

func runPaperPipeline(r *run) error {
	e, times, err := repeatSetup(setupRepeats, func() (*pipelineEnv, error) {
		eco, err := generate()
		if err != nil {
			return nil, err
		}
		if err := ensureTree(eco.DB); err != nil {
			return nil, err
		}
		return &pipelineEnv{eco: eco, tree: treeDir}, nil
	}, func(*pipelineEnv) {})
	if err != nil {
		return err
	}
	r.setup(times)
	if e.want, _, err = renderAll(nil, artifacts.NewContext(e.eco)); err != nil {
		return err
	}

	// A traced run alternates untraced and traced iterations, so it needs
	// at least one of each; the two halves give the tracing overhead.
	var (
		its      [2][]iteration // [untraced, traced]
		lastDB   *store.Database
		minIters = 1
		start    = time.Now()
	)
	if r.traced {
		minIters = 2
	}
	for i := 0; i < minIters || time.Since(start) < r.seconds; i++ {
		k, tr := 0, (*tracer)(nil)
		if r.traced && i%2 == 1 {
			k, tr = 1, r.tr
		}
		it, err := e.iterate(tr)
		if err != nil {
			r.fail(err)
			continue
		}
		r.attempted++
		its[k] = append(its[k], it)
		lastDB = it.db
		it.db = nil
	}
	if len(its[0]) == 0 || (r.traced && len(its[1]) == 0) {
		return fmt.Errorf("no iteration passed its output checks: %v", r.firstErr)
	}
	pick := func(k int, f func(iteration) time.Duration) []time.Duration {
		var ds []time.Duration
		for _, it := range its[k] {
			ds = append(ds, f(it))
		}
		return ds
	}
	ingest := func(it iteration) time.Duration { return it.ingest }
	render := func(it iteration) time.Duration { return it.render }

	if !r.traced {
		n, q := len(its[0]), quietShare(len(its[0]))
		r.set("latency_p50_ms", ms(quietDur(pick(0, render))), "render of all 11 artifacts, median of the quickest %d of %d", q, n)
		r.set("job_s", quietDur(pick(0, ingest)).Seconds(), "catalog.LoadTree, median of the quickest %d of %d", q, n)
		r.set("cpu_ms_per_op", ms(quietDur(pick(0, func(it iteration) time.Duration { return it.cpu }))), "CPU per iteration, median of the quickest %d of %d", q, n)
		r.extraf("%-16s %12.4f s      (median of %d ingests)", "ingest_s", medianDur(pick(0, ingest)).Seconds(), n)
		r.extraf("%-16s %12.4f s      (median of %d renders)", "artifacts_s", medianDur(pick(0, render)).Seconds(), n)
		r.heap()
		runtime.KeepAlive(e)
		runtime.KeepAlive(lastDB)
		return nil
	}

	var ops int
	var alloc, mallocs uint64
	var gcs uint32
	for _, it := range its[1] {
		ops++
		alloc += it.alloc
		mallocs += it.mallocs
		gcs += it.gcs
	}
	r.runtimeLayer(&phase{samples: make([]sample, ops), alloc: alloc, mallocs: mallocs, gcCycles: gcs})
	loads := r.tr.named("catalog.load_tree", "")
	r.set("catalog.load_tree_ms", ms(medianDur(loads)), "median of %d", len(loads))
	r.set("catalog.snapshots", float64(lastDB.TotalSnapshots()), "ingested from %s", e.tree)
	for _, a := range paperArtifacts {
		ds := r.tr.named("artifacts."+a.name, "")
		r.set("artifacts."+a.name+"_ms", ms(medianDur(ds)), "median of %d", len(ds))
	}
	i0, i1 := medianDur(pick(0, ingest)), medianDur(pick(1, ingest))
	r.rowf("tracing overhead job_s: %+.5f (untraced %.5f, traced %.5f)", i1.Seconds()-i0.Seconds(), i0.Seconds(), i1.Seconds())
	r0, r1 := medianDur(pick(0, render)), medianDur(pick(1, render))
	r.rowf("tracing overhead latency_p50_ms: %+.4f (untraced %.4f, traced %.4f)", ms(r1-r0), ms(r0), ms(r1))
	ingestEco := *e.eco
	ingestEco.DB = lastDB
	return probeLayers(r, &ingestEco, nil)
}

// iteration is what one reproduction measured.
type iteration struct {
	db                  *store.Database
	ingest, render, cpu time.Duration
	alloc, mallocs      uint64
	gcs                 uint32
}

// iterate is one reproduction: ingest the native tree, check it against
// the generated corpus, render all eleven artifacts and check each against
// its set-up digest.
func (e *pipelineEnv) iterate(tr *tracer) (iteration, error) {
	var (
		it  iteration
		err error
	)
	before := readStats()
	runtime.GC()
	it.ingest = tr.time("catalog.load_tree", "", func() { it.db, err = catalog.LoadTree(e.tree, catalog.Options{Archive: catalog.ArchiveOff}) })
	if err != nil {
		return it, err
	}
	if err := sameCorpus(it.db, e.eco.DB); err != nil {
		return it, fmt.Errorf("ingested tree: %w", err)
	}
	ingested := *e.eco
	ingested.DB = it.db
	// Each timed step starts from a collected heap: the ingest leaves
	// gigabytes of garbage, and a collection of the ingested corpus still
	// marking when the render starts would charge the render for it. The
	// collections count in the iteration's CPU time.
	runtime.GC()
	got, ren, err := renderAll(tr, artifacts.NewContext(&ingested))
	if err != nil {
		return it, err
	}
	after := readStats()
	for i, d := range got {
		if d != e.want[i] {
			return it, fmt.Errorf("%s rendered from the ingested tree differs from the set-up rendering", paperArtifacts[i].name)
		}
	}
	it.render = ren
	it.cpu = after.cpu - before.cpu
	it.alloc = after.mem.TotalAlloc - before.mem.TotalAlloc
	it.mallocs = after.mem.Mallocs - before.mem.Mallocs
	it.gcs = after.mem.NumGC - before.mem.NumGC
	return it, nil
}

// sameCorpus checks that every snapshot was ingested with its date and its
// server-auth trusted roots.
func sameCorpus(got, want *store.Database) error {
	if g, w := got.TotalSnapshots(), want.TotalSnapshots(); g != w {
		return fmt.Errorf("%d snapshots, want %d", g, w)
	}
	for _, p := range want.Providers() {
		gh := got.History(p)
		if gh == nil {
			return fmt.Errorf("provider %s missing", p)
		}
		ws, gs := want.History(p).Snapshots(), gh.Snapshots()
		if len(gs) != len(ws) {
			return fmt.Errorf("%s: %d snapshots, want %d", p, len(gs), len(ws))
		}
		for i := range ws {
			if !gs[i].Date.Equal(ws[i].Date) {
				return fmt.Errorf("%s snapshot %d dated %s, want %s", p, i, gs[i].Date.Format("2006-01-02"), ws[i].Date.Format("2006-01-02"))
			}
			wset, gset := ws[i].TrustedSet(store.ServerAuth), gs[i].TrustedSet(store.ServerAuth)
			if len(wset) != len(gset) {
				return fmt.Errorf("%s %s: %d server-auth roots, want %d", p, ws[i].Version, len(gset), len(wset))
			}
			for fp := range wset {
				if !gset[fp] {
					return fmt.Errorf("%s %s: root %s lost in the round trip", p, ws[i].Version, fp.Short())
				}
			}
		}
	}
	return nil
}
