package trustroots_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark runs
// the full analysis that regenerates its artifact from the synthetic corpus
// (generated once per process) and asserts the paper's qualitative shape so
// a regression in the reproduction fails the bench run, not just the unit
// tests. `go test -run TestReproduction -v` prints the artifacts themselves.

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	trustroots "repro"
	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/mds"
	"repro/internal/paperdata"
	"repro/internal/service"
	"repro/internal/setdist"
	"repro/internal/useragent"
	"repro/internal/verify"
)

var (
	benchOnce sync.Once
	benchCtx  *artifacts.Context
	benchErr  error
)

func benchContext(tb testing.TB) *artifacts.Context {
	tb.Helper()
	benchOnce.Do(func() {
		eco, err := trustroots.CachedEcosystem("bench")
		if err != nil {
			benchErr = err
			return
		}
		benchCtx = artifacts.NewContext(eco)
	})
	if benchErr != nil {
		tb.Fatalf("generate ecosystem: %v", benchErr)
	}
	return benchCtx
}

func ts(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// TestReproduction prints every artifact (run with -v to see them); it is
// the harness entry point whose output EXPERIMENTS.md records.
func TestReproduction(t *testing.T) {
	ctx := benchContext(t)
	var w io.Writer = io.Discard
	if testing.Verbose() {
		w = os.Stdout
	}
	if err := ctx.RenderAll(w); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTable1UserAgents measures the UA → provider mapping pipeline
// over the top-200 sample.
func BenchmarkTable1UserAgents(b *testing.B) {
	uas := useragent.Generate(useragent.PaperSample())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := core.AnalyzeUserAgents(uas)
		if t1.Total != 200 || t1.Included == 0 {
			b.Fatalf("bad table 1: %d/%d", t1.Included, t1.Total)
		}
	}
}

// BenchmarkTable2Dataset measures the dataset summary over all providers.
func BenchmarkTable2Dataset(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ctx.Pipe.DatasetSummary()
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure1MDS measures the full ordination: pairwise Jaccard,
// SMACOF embedding, clustering.
func BenchmarkFigure1MDS(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ord, err := ctx.Pipe.Ordinate(core.DefaultOrdinationConfig())
		if err != nil {
			b.Fatal(err)
		}
		if ord.Purity < 0.9 {
			b.Fatalf("purity regressed: %.3f", ord.Purity)
		}
	}
}

// BenchmarkFigure2Ecosystem measures the family-share rollup.
func BenchmarkFigure2Ecosystem(b *testing.B) {
	uas := useragent.Generate(useragent.PaperSample())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f2 := core.EcosystemShares(uas)
		if !(f2.Share(useragent.FamilyNSS) > f2.Share(useragent.FamilyApple)) {
			b.Fatal("pyramid shape regressed")
		}
	}
}

// BenchmarkTable3Hygiene measures the hygiene metrics over the four
// programs' full histories.
func BenchmarkTable3Hygiene(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ctx.Pipe.Hygiene(paperdata.IndependentPrograms)
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable4RemovalLag measures the incident response-lag analysis.
func BenchmarkTable4RemovalLag(b *testing.B) {
	ctx := benchContext(b)
	specs := ctx.IncidentSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ctx.Pipe.RemovalLag(specs)
		if len(rows) == 0 {
			b.Fatal("no lag rows")
		}
	}
}

// BenchmarkFigure3Staleness measures derivative staleness for all six
// derivatives.
func BenchmarkFigure3Staleness(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	from, to := ts(2015, 1, 1), ts(2021, 4, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ctx.Pipe.AllDerivativeStaleness(paperdata.NSS, paperdata.Derivatives, from, to)
		if len(res) != len(paperdata.Derivatives) {
			b.Fatalf("series = %d", len(res))
		}
	}
}

// BenchmarkFigure4DerivativeDiffs measures the per-derivative membership
// diff series.
func BenchmarkFigure4DerivativeDiffs(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	categorize := ctx.Categorize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range paperdata.Derivatives {
			diff := ctx.Pipe.DerivativeDiffs(d, paperdata.NSS, categorize)
			if diff == nil || !diff.Deviates() {
				b.Fatalf("%s: deviation regressed", d)
			}
		}
	}
}

// BenchmarkTable5Survey measures the software-survey rendering (pure
// curated data; baseline for the harness).
func BenchmarkTable5Survey(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Table5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Exclusive measures the program-exclusive root analysis.
func BenchmarkTable6Exclusive(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := ctx.Pipe.ExclusiveCounts(paperdata.IndependentPrograms)
		if counts[paperdata.Microsoft] != 30 {
			b.Fatalf("Microsoft exclusives = %d", counts[paperdata.Microsoft])
		}
	}
}

// BenchmarkTable7NSSRemovals measures removal-event extraction from the NSS
// history.
func BenchmarkTable7NSSRemovals(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := ctx.Pipe.RemovalCatalog(paperdata.NSS, ts(2010, 1, 1), nil)
		if len(events) == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkAblationMDS compares SMACOF stress majorization against
// closed-form classical scaling on the Figure 1 distance matrix — the
// design-choice ablation for the ordination stage.
func BenchmarkAblationMDS(b *testing.B) {
	ctx := benchContext(b)
	cfg := core.DefaultOrdinationConfig()
	var snaps = ctxSnapshots(ctx, cfg)
	dist := setdist.DistanceMatrix(snaps, ctx.Pipe.Purpose)

	b.Run("classical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mds.Classical(dist, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smacof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := mds.SMACOF(dist, mds.Config{Dims: 2})
			if err != nil {
				b.Fatal(err)
			}
			classical, _ := mds.Classical(dist, 2)
			if res.Stress > classical.Stress+1e-9 {
				b.Fatal("SMACOF should not be worse than its own initialization")
			}
		}
	})
}

// BenchmarkDistanceMatrix isolates the pairwise-distance stage of Figure 1
// and compares the map-based reference against the interned-bitset engine,
// serial and with the worker pool — the tentpole speedup, measured without
// the MDS stages on top.
func BenchmarkDistanceMatrix(b *testing.B) {
	ctx := benchContext(b)
	cfg := core.DefaultOrdinationConfig()
	snaps := ctxSnapshots(ctx, cfg)
	p := ctx.Pipe.Purpose

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := setdist.DistanceMatrixMap(snaps, p, nil); m.Rows != len(snaps) {
				b.Fatalf("rows = %d", m.Rows)
			}
		}
	})
	b.Run("bitset-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := setdist.DistanceMatrixBits(snaps, p, nil, 1); m.Rows != len(snaps) {
				b.Fatalf("rows = %d", m.Rows)
			}
		}
	})
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := setdist.DistanceMatrix(snaps, p); m.Rows != len(snaps) {
				b.Fatalf("rows = %d", m.Rows)
			}
		}
	})
}

// ctxSnapshots re-derives the ordination snapshot set (mirrors the
// pipeline's internal selection using public behaviour).
func ctxSnapshots(ctx *artifacts.Context, cfg core.OrdinationConfig) []*trustroots.Snapshot {
	var out []*trustroots.Snapshot
	for _, prov := range ctx.Eco.DB.Providers() {
		for _, st := range ctx.Pipe.UniqueStates(prov) {
			if st.Date.Before(cfg.From) || st.Date.After(cfg.To) {
				continue
			}
			if s := ctx.Eco.DB.History(prov).At(st.Date); s != nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// BenchmarkAblationPartialDistrust compares verification outcomes for a
// post-cutoff leaf under NSS semantics vs a derivative's flattened copy —
// the paper's §6.2 failure, measured.
func BenchmarkAblationPartialDistrust(b *testing.B) {
	ctx := benchContext(b)
	eco := ctx.Eco

	nssSnap := eco.DB.History(paperdata.NSS).At(ts(2020, 9, 15))
	debSnap := eco.DB.History(paperdata.Debian).At(ts(2020, 11, 15))
	var anchor *trustroots.TrustEntry
	for _, e := range nssSnap.Entries() {
		if _, ok := e.DistrustAfterFor(trustroots.ServerAuth); ok {
			anchor = e
			break
		}
	}
	if anchor == nil {
		b.Fatal("no partially distrusted anchor")
	}
	ca := eco.Universe.Lookup(anchor.Label)
	cutoff, _ := anchor.DistrustAfterFor(trustroots.ServerAuth)
	leafDER, err := trustroots.IssueLeaf(ca, "bench.example.test", cutoff.AddDate(0, 1, 0), cutoff.AddDate(2, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := trustroots.NewEntry(leafDER)
	if err != nil {
		b.Fatal(err)
	}
	at := ts(2020, 11, 15)

	b.Run("nss-semantics", func(b *testing.B) {
		v := verify.New(nssSnap)
		for i := 0; i < b.N; i++ {
			res := v.Verify(verify.Request{Leaf: leaf.Cert, Purpose: trustroots.ServerAuth, At: at})
			if res.Outcome != verify.AnchorPartialDistrust {
				b.Fatalf("outcome = %v", res.Outcome)
			}
		}
	})
	b.Run("flat-derivative", func(b *testing.B) {
		v := verify.New(debSnap)
		for i := 0; i < b.N; i++ {
			res := v.Verify(verify.Request{Leaf: leaf.Cert, Purpose: trustroots.ServerAuth, At: at})
			if res.Outcome != verify.OK {
				b.Fatalf("outcome = %v", res.Outcome)
			}
		}
	})
}

// serviceVerifyFixture prepares a server over the bench corpus plus a
// §6.2 chain (post-cutoff Symantec leaf) for the serving-layer benchmarks.
func serviceVerifyFixture(b *testing.B) (*service.Server, []byte, []string) {
	b.Helper()
	ctx := benchContext(b)
	eco := ctx.Eco

	nssSnap := eco.DB.History(paperdata.NSS).At(ts(2020, 9, 15))
	var anchor *trustroots.TrustEntry
	for _, e := range nssSnap.Entries() {
		if _, ok := e.DistrustAfterFor(trustroots.ServerAuth); ok {
			anchor = e
			break
		}
	}
	if anchor == nil {
		b.Fatal("no partially distrusted anchor")
	}
	ca := eco.Universe.Lookup(anchor.Label)
	cutoff, _ := anchor.DistrustAfterFor(trustroots.ServerAuth)
	leafDER, err := trustroots.IssueLeaf(ca, "bench.example.test", cutoff.AddDate(0, 1, 0), cutoff.AddDate(2, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	chainPEM := string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leafDER}))

	var versions []string
	for _, s := range eco.DB.History(paperdata.NSS).Snapshots() {
		versions = append(versions, "NSS@"+s.Version)
	}
	srv := service.New(eco.DB, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})

	body, err := json.Marshal(map[string]any{
		"chain_pem": chainPEM, "stores": []string{"NSS"}, "at": "2020-11-15",
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv, body, versions
}

func postServiceVerify(b *testing.B, srv *service.Server, body []byte) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServiceVerify measures the POST /v1/verify hot path cache-cold
// vs cache-warm. Cold rotates snapshot and chain-key per iteration so every
// request misses the verdict LRU and periodically pays verifier (cert pool)
// construction; warm repeats one request, which after the first hit is a
// pure LRU recall. Warm/cold is the serving layer's caching win.
func BenchmarkServiceVerify(b *testing.B) {
	srv, body, versions := serviceVerifyFixture(b)
	b.ReportAllocs()

	b.Run("cold", func(b *testing.B) {
		// A fresh server so nothing is pre-built. Each iteration rotates
		// the target snapshot (periodically paying verifier/pool
		// construction) and perturbs the verification instant by one
		// second (a distinct verdict key), so every request misses the
		// LRU and runs a full chain verification.
		cold := service.New(benchContext(b).Eco.DB, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			b.Fatal(err)
		}
		base := time.Date(2020, 11, 15, 0, 0, 0, 0, time.UTC)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m["stores"] = []string{versions[i%len(versions)]}
			m["at"] = base.Add(time.Duration(i) * time.Second).Format(time.RFC3339)
			raw, _ := json.Marshal(m)
			postServiceVerify(b, cold, raw)
		}
	})
	b.Run("warm", func(b *testing.B) {
		postServiceVerify(b, srv, body) // prime the caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postServiceVerify(b, srv, body)
		}
	})
}

// BenchmarkFingerprintIndex measures the global root index: one-time build
// cost over the full corpus and steady-state lookup cost.
func BenchmarkFingerprintIndex(b *testing.B) {
	ctx := benchContext(b)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ix := service.BuildIndex(ctx.Eco.DB); ix.Size() == 0 {
				b.Fatal("empty index")
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		ix := service.BuildIndex(ctx.Eco.DB)
		var fps []string
		for _, e := range ctx.Eco.DB.History(paperdata.NSS).Latest().Entries() {
			fps = append(fps, e.Fingerprint.String())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := ix.Lookup(fps[i%len(fps)]); !ok {
				b.Fatal("miss for an indexed root")
			}
		}
	})
}

// BenchmarkGenerateEcosystem measures full corpus generation.
func BenchmarkGenerateEcosystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eco, err := trustroots.GenerateEcosystem("bench-gen")
		if err != nil {
			b.Fatal(err)
		}
		if eco.DB.TotalSnapshots() < 619 {
			b.Fatalf("snapshots = %d", eco.DB.TotalSnapshots())
		}
	}
}

// BenchmarkAblationDistanceMetric compares ordination quality under the
// paper's Jaccard distance against the overlap-coefficient distance: the
// overlap metric collapses subset relationships (a derivative equals its
// upstream, Java equals the mainstream core), degrading family separation.
func BenchmarkAblationDistanceMetric(b *testing.B) {
	ctx := benchContext(b)
	run := func(b *testing.B, metric setdist.Metric, name string) float64 {
		cfg := core.DefaultOrdinationConfig()
		cfg.Metric = metric
		var purity float64
		for i := 0; i < b.N; i++ {
			ord, err := ctx.Pipe.Ordinate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			purity = ord.Purity
		}
		b.ReportMetric(purity, "purity")
		return purity
	}
	var jaccardPurity, overlapPurity float64
	b.Run("jaccard", func(b *testing.B) { jaccardPurity = run(b, nil, "jaccard") })
	b.Run("overlap", func(b *testing.B) { overlapPurity = run(b, setdist.OverlapDistance, "overlap") })
	if jaccardPurity < overlapPurity-1e-9 && jaccardPurity > 0 {
		b.Logf("note: jaccard purity %.3f vs overlap %.3f", jaccardPurity, overlapPurity)
	}
}
