package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/artifacts"
)

// The tests run workloads for a second each, with one set-up per run. They
// run from the repository root, as the benchmark command does, so their
// build outputs land under .bench_build/ there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	setupRepeats = 1
	os.Exit(m.Run())
}

// runOnce runs a workload for one second and returns its parsed result.
func runOnce(t *testing.T, name string, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	code := runWorkload(name, 1, time.Second, traced, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: exit %d, result %+v\n%s", name, traced, code, res, out.String())
	}
	return res
}

// sameMetrics checks that a result reports exactly the declared metrics.
func sameMetrics(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
		}
	}
}

func TestWorkloadsPassOutputChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sameMetrics(t, w.name, runOnce(t, w.name, false), endToEnd)
		})
	}
}

func TestTracedRunsReportEveryLayer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sameMetrics(t, w.name, runOnce(t, w.name, true), perLayer)
			if _, err := os.Stat(fmt.Sprintf(".bench_build/trustd-bench/spans-%s-1.jsonl", w.name)); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked in.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json scores a subset of the command's workloads (see
	// README.md); every one it lists must exist.
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, w := range bf.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the command lacks", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		file []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", c.kind, len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			names = append(names, d.name)
			if i >= len(c.file) || c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s metric %d: command has %s (%s), BENCHMARK.json differs", c.kind, i, d.name, d.unit)
			}
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// TestSameSeedSameInputs checks that a seed fixes every request a workload
// sends and every oracle digest it checks against, and that another seed
// changes the requests.
func TestSameSeedSameInputs(t *testing.T) {
	eco, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	verifyInputs := func(seed int64) string {
		leaves, err := mintLeaves(eco, seed, verifyHot.prefix, verifyHot.leaves)
		if err != nil {
			t.Fatal(err)
		}
		e := &verifyEnv{w: &verifyHot, eco: eco, leaves: leaves}
		if err := e.buildOracle(seed); err != nil {
			t.Fatal(err)
		}
		return opsDigest(append(e.mixedOps(500), e.bulkOps()...)) + fmt.Sprint(e.want)
	}
	if a, b := verifyInputs(7), verifyInputs(7); a != b {
		t.Error("verify: the same seed drew different requests or oracle verdicts")
	}
	if verifyInputs(7) == verifyInputs(8) {
		t.Error("verify: seeds 7 and 8 drew the same requests")
	}

	readInputs := func(seed int64) string {
		e, err := setupRead(newRun("read-reload", seed, time.Second, false))
		if err != nil {
			t.Fatal(err)
		}
		defer e.srv.close()
		var want []string
		for _, tm := range e.tmpls {
			want = append(want, tm.want[0], tm.want[1])
		}
		return opsDigest(e.ops(readRefRate, time.Second)) + strings.Join(want, ",") + strings.Join(e.hashes[:], ",")
	}
	if a, b := readInputs(7), readInputs(7); a != b {
		t.Error("read-reload: the same seed drew different requests or oracle bodies")
	}

	render := func() string {
		d, _, err := renderAll(nil, artifacts.NewContext(eco))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(d, ",")
	}
	if render() != render() {
		t.Error("paper-pipeline: two renders of the corpus differ")
	}
}

// opsDigest digests a request sequence: method, path, If-None-Match and
// body of each request, in order.
func opsDigest(ops []*op) string {
	var b bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&b, "%s %s %q %d\n", o.method, o.path, o.inm, len(o.body))
		b.Write(o.body)
	}
	return digest(b.Bytes())
}
