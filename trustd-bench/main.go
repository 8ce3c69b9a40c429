// Command trustd-bench is the end-to-end and per-layer benchmark of the
// trust-anchor stack: trustd serving verify and read traffic on the
// paper-scale corpus, and the paper's own ingest-and-render pipeline.
//
// Usage (from the repository root):
//
//	bash trustd-bench/run.sh --workload verify-hot --seed 1 --seconds 10 --trace 0
//
// One run sets up its workload (several times, for a set-up median), drives
// it for --seconds, checks every output against an oracle computed at
// set-up, prints a human-readable report and, as its last line, one JSON
// object with the run's metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 records spans around every layer call, writes them to a span
// file and reports the per-layer metrics instead. The exit code is
// non-zero when any output check failed or the run was invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. The two tables below are the
// only place metrics are declared; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them, each with the workload's own meaning (see
// README.md): latency is per request for the serving workloads and per
// artifact render for paper-pipeline; job_s is one bulk batch, one reload
// or one ingest.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"job_s", "s"},
	{"heap_mb", "MiB"},
	{"cpu_ms_per_op", "ms"},
}

// scaled are the end-to-end times reported scaled to the host's speed:
// setup_s by the calibration kernel, the rest by both kernels (see
// calibrate.go).
var scaled = map[string]bool{"setup_s": true, "latency_p50_ms": true, "job_s": true, "cpu_ms_per_op": true}

// perLayer metrics come from the traced run only.
var perLayer = []metricDef{
	{"client.sched_lag_p99_ms", "ms"},
	{"client.conns_max", "count"},
	{"transport.p50_us", "us"},
	{"transport.p99_us", "us"},
	{"service.verify.handler_p50_us", "us"},
	{"service.verify.handler_p99_us", "us"},
	{"service.verdict_cache.hit_ratio", "ratio"},
	{"service.useragent_map_us", "us"},
	{"service.batch.handler_p50_us", "us"},
	{"service.verifier_cache.hit_ratio", "ratio"},
	{"service.read.handler_p50_us", "us"},
	{"service.read.handler_p99_us", "us"},
	{"service.not_modified_ratio", "ratio"},
	{"service.simulate.handler_p50_us", "us"},
	{"service.build_index_ms", "ms"},
	{"service.swap_ms", "ms"},
	{"service.first_simulate_after_swap_ms", "ms"},
	{"verify.chain_p50_us", "us"},
	{"verify.chain_p99_us", "us"},
	{"verify.pool_build_ms", "ms"},
	{"archive.verify_hash_ms", "ms"},
	{"archive.decode_ms", "ms"},
	{"simulate.engine_build_ms", "ms"},
	{"simulate.sweep_ms", "ms"},
	{"simulate.event_us", "us"},
	{"catalog.load_tree_ms", "ms"},
	{"catalog.snapshots", "count"},
	{"setdist.matrix_ms", "ms"},
	{"mds.ordination_ms", "ms"},
	{"artifacts.table1_ms", "ms"},
	{"artifacts.table2_ms", "ms"},
	{"artifacts.table3_ms", "ms"},
	{"artifacts.table4_ms", "ms"},
	{"artifacts.table5_ms", "ms"},
	{"artifacts.table6_ms", "ms"},
	{"artifacts.table7_ms", "ms"},
	{"artifacts.figure1_ms", "ms"},
	{"artifacts.figure2_ms", "ms"},
	{"artifacts.figure3_ms", "ms"},
	{"artifacts.figure4_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(*run) error
}

var workloads = []workload{
	{"verify-hot", runVerifyHot},
	{"verify-cold", runVerifyCold},
	{"read-reload", runReadReload},
	{"paper-pipeline", runPaperPipeline},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	spans    string
	tr       *tracer // nil unless traced

	attempted, failed int
	firstErr          error
	invalid           []string

	kernel   *kernelTimer       // nil until calibrate, and after dropCalibration
	loopback *loopbackTimer     // likewise
	cals     []time.Duration    // calibration kernel samples
	loops    []time.Duration    // loopback round trip samples
	values   map[string]float64 // metric name → value
	counts   map[string]string  // metric name → sample note for the report
	extra    []string           // workload-specific figures, printed
	rows     []string           // attribution and overhead rows, printed
	started  time.Time
}

// set records a metric value with the note printed beside it (typically
// its sample count).
func (r *run) set(name string, v float64, note string, args ...any) {
	r.values[name] = v
	r.counts[name] = fmt.Sprintf(note, args...)
}

// extraf records one of the workload-specific figures for the
// report.
func (r *run) extraf(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

func (r *run) rowf(format string, args ...any) {
	r.rows = append(r.rows, fmt.Sprintf(format, args...))
}

// count adds a finished phase's operations and failures to the run's
// totals. Shed requests of a capacity probe are not failures of the
// system, so callers pass countShed=false for ladder rungs.
func (r *run) count(p *phase, countShed bool) {
	for i := range p.samples {
		s := &p.samples[i]
		if !countShed && s.err == errShed {
			continue
		}
		r.attempted++
		if s.err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = s.err
			}
		}
	}
}

// fail records a failed operation outside the load phases.
func (r *run) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// setup records setup_s as the median of the set-up repetitions.
func (r *run) setup(times []time.Duration) {
	r.set("setup_s", medianDur(times).Seconds(), "median of %d set-ups %v", len(times), roundAll(times))
}

// heap records heap_mb: the live heap after a full collection.
func (r *run) heap() {
	r.dropCalibration()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("heap_mb", float64(m.HeapAlloc)/(1<<20), "HeapAlloc after GC")
}

// runtimeLayer records the runtime per-layer metrics of the phases.
func (r *run) runtimeLayer(ps ...*phase) {
	var alloc, mallocs uint64
	var gcs uint32
	ops := 0
	for _, p := range ps {
		alloc += p.alloc
		mallocs += p.mallocs
		gcs += p.gcCycles
		ops += len(p.samples)
	}
	r.set("runtime.alloc_bytes_per_op", ratio(float64(alloc), float64(ops)), "%d ops", ops)
	r.set("runtime.mallocs_per_op", ratio(float64(mallocs), float64(ops)), "%d ops", ops)
	r.set("runtime.gc_cycles", float64(gcs), "during the measured phases")
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 records spans to .bench_build/trustd-bench/spans-<workload>-<seed>.jsonl and reports per-layer metrics")
	)
	flag.Parse()
	if findWorkload(*name) == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: trustd-bench --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	return runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
}

func newRun(workload string, seed int64, seconds time.Duration, traced bool) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		spans:  fmt.Sprintf(".bench_build/trustd-bench/spans-%s-%d.jsonl", workload, seed),
		values: map[string]float64{}, counts: map[string]string{}, started: time.Now(),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload runs one workload, writes its report and result line to out
// and returns the exit code.
func runWorkload(name string, seed int64, seconds time.Duration, traced bool, out io.Writer) int {
	wl := findWorkload(name)
	r := newRun(wl.name, seed, seconds, traced)
	defer r.dropCalibration()
	err := r.calibrate(4)
	if err == nil {
		err = wl.run(r)
	}
	if err == nil {
		err = r.calibrate(4)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trustd-bench %s: %v\n", wl.name, err)
		return 1
	}
	if r.traced {
		if err := r.tr.write(r.spans); err != nil {
			fmt.Fprintf(os.Stderr, "trustd-bench: write spans: %v\n", err)
			return 1
		}
	}
	return r.finish(out)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the report and the JSON result and returns the exit code.
func (r *run) finish(w io.Writer) int {
	defs := endToEnd
	kind := "end-to-end"
	if r.traced {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "trustd-bench workload=%s seed=%d seconds=%d trace=%v wall=%s\n",
		r.workload, r.seed, int(r.seconds/time.Second), r.traced, time.Since(r.started).Round(time.Millisecond))
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	setup, serving := r.scales()
	fmt.Fprintf(w, "calibration kernel %s, loopback round trip %s (medians of %d samples; references %s, %s): setup_s scaled by %.4f, serving times by %.4f\n",
		medianDur(r.cals).Round(time.Microsecond), medianDur(r.loops).Round(100*time.Nanosecond), len(r.cals), calibrationRef, loopbackRef, setup, serving)
	fmt.Fprintf(w, "%s metrics:\n", kind)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		note := r.counts[d.name]
		if scaled[d.name] {
			note = fmt.Sprintf("raw %.4f; %s", v, note)
			if d.name == "setup_s" {
				v *= setup
			} else {
				v *= serving
			}
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s  (%s)\n", d.name, v, d.unit, note)
	}
	if len(r.extra) > 0 {
		fmt.Fprintln(w, "workload metrics:")
		for _, line := range r.extra {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	fmt.Fprintf(w, "  %-40s %14.6f %-6s  (%d failed / %d attempted)\n", "fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	if len(r.rows) > 0 {
		fmt.Fprintln(w, "attribution and overhead:")
		for _, line := range r.rows {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.invalid = append(r.invalid, "metrics not measured: "+strings.Join(missing, ", "))
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	for _, why := range r.invalid {
		fmt.Fprintf(w, "INVALID: %s\n", why)
	}
	if r.traced {
		fmt.Fprintf(w, "spans: %s\n", r.spans)
	}
	res.Correct = r.failed == 0 && len(r.invalid) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trustd-bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
