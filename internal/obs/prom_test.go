package obs

import (
	"math"
	"strings"
	"testing"
)

// promFixture is a family set exercising every rendering feature: label
// escaping, histogram suffixes, sorting, infinities.
func promFixture() []MetricFamily {
	return []MetricFamily{
		{
			Name: "zz_requests_total",
			Help: "Requests by route.\nSecond line \\ backslash.",
			Type: Counter,
			Samples: []Sample{
				{Labels: []Label{{"route", `POST /v1/verify`}}, Value: 7},
				{Labels: []Label{{"route", `GET /v1/diff?a="x"`}}, Value: 2},
			},
		},
		GaugeFamily("aa_up", "Always first after sorting.", 1),
		{
			Name:    "mm_latency_seconds",
			Help:    "Request latency.",
			Type:    Histogram,
			Samples: HistogramSamples([]Label{{"route", "GET /x"}}, []float64{0.001, 0.025, 0.1}, []uint64{3, 2, 1, 1}, 0.5),
		},
	}
}

// TestExpositionGolden locks the full rendered form: family order,
// sample order, escaping, histogram cumulation. Any formatting change
// must be deliberate.
func TestExpositionGolden(t *testing.T) {
	const want = `# HELP aa_up Always first after sorting.
# TYPE aa_up gauge
aa_up 1
# HELP mm_latency_seconds Request latency.
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{route="GET /x",le="0.001"} 3
mm_latency_seconds_bucket{route="GET /x",le="0.025"} 5
mm_latency_seconds_bucket{route="GET /x",le="0.1"} 6
mm_latency_seconds_bucket{route="GET /x",le="+Inf"} 7
mm_latency_seconds_count{route="GET /x"} 7
mm_latency_seconds_sum{route="GET /x"} 0.5
# HELP zz_requests_total Requests by route.\nSecond line \\ backslash.
# TYPE zz_requests_total counter
zz_requests_total{route="GET /v1/diff?a=\"x\""} 2
zz_requests_total{route="POST /v1/verify"} 7
`
	var sb strings.Builder
	if err := WriteExposition(&sb, promFixture()); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
	// Rendering twice is byte-stable (the ordering contract).
	var again strings.Builder
	WriteExposition(&again, promFixture())
	if again.String() != sb.String() {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestLintCleanFixture(t *testing.T) {
	if problems := Lint(promFixture()); len(problems) != 0 {
		t.Fatalf("lint problems on clean fixture: %v", problems)
	}
	var sb strings.Builder
	WriteExposition(&sb, promFixture())
	if problems := LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Fatalf("wire lint problems on clean fixture: %v", problems)
	}
}

func TestLintCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		fams []MetricFamily
		want string
	}{
		{"bad metric name", []MetricFamily{CounterFamily("1bad_total", "h", 1)}, "invalid metric name"},
		{"missing help", []MetricFamily{{Name: "x_total", Type: Counter, Samples: []Sample{{Value: 1}}}}, "no HELP"},
		{"counter suffix", []MetricFamily{CounterFamily("x_count_of_things", "h", 1)}, "_total"},
		{"duplicate series", []MetricFamily{{Name: "x_total", Help: "h", Type: Counter,
			Samples: []Sample{{Value: 1}, {Value: 2}}}}, "duplicate series"},
		{"bad label", []MetricFamily{{Name: "x_total", Help: "h", Type: Counter,
			Samples: []Sample{{Labels: []Label{{"le-gal", "v"}}, Value: 1}}}}, "invalid label name"},
		{"histogram no inf", []MetricFamily{{Name: "h", Help: "h", Type: Histogram,
			Samples: []Sample{{Suffix: "_bucket", Labels: []Label{{"le", "1"}}, Value: 1}}}}, "+Inf"},
		{"histogram non-cumulative", []MetricFamily{{Name: "h", Help: "h", Type: Histogram,
			Samples: []Sample{
				{Suffix: "_bucket", Labels: []Label{{"le", "1"}}, Value: 5},
				{Suffix: "_bucket", Labels: []Label{{"le", "+Inf"}}, Value: 3},
			}}}, "cumulative"},
	}
	for _, tc := range cases {
		problems := Lint(tc.fams)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a problem containing %q, got %v", tc.name, tc.want, problems)
		}
	}
}

func TestLintExpositionCatchesWireProblems(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"undeclared sample", "some_metric 1\n", "no TYPE"},
		{"bad value", "# TYPE x gauge\nx notanumber\n", "bad value"},
		{"unknown type", "# TYPE x widget\nx 1\n", "unknown type"},
		{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n", "+Inf"},
		{"duplicate type", "# TYPE x gauge\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
	}
	for _, tc := range cases {
		problems := LintExposition(strings.NewReader(tc.text))
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want problem containing %q, got %v", tc.name, tc.want, problems)
		}
	}
	// Inf and NaN values are legal.
	ok := "# TYPE x gauge\nx +Inf\n"
	if problems := LintExposition(strings.NewReader(ok)); len(problems) != 0 {
		t.Errorf("+Inf value flagged: %v", problems)
	}
}

func TestHistogramSamplesShape(t *testing.T) {
	s := HistogramSamples(nil, []float64{1, 2}, []uint64{1, 0, 4}, 9.5)
	// buckets: le=1 →1, le=2 →1, +Inf →5; then _sum and _count.
	if len(s) != 5 {
		t.Fatalf("samples = %d, want 5", len(s))
	}
	if s[2].Labels[0].Value != "+Inf" || s[2].Value != 5 {
		t.Errorf("+Inf bucket = %+v", s[2])
	}
	if s[3].Suffix != "_sum" || s[3].Value != 9.5 {
		t.Errorf("sum = %+v", s[3])
	}
	if s[4].Suffix != "_count" || s[4].Value != 5 {
		t.Errorf("count = %+v", s[4])
	}
}

func TestFormatValue(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" || formatValue(math.NaN()) != "NaN" {
		t.Error("special values misformatted")
	}
	if formatValue(0.001) != "0.001" {
		t.Errorf("0.001 → %s", formatValue(0.001))
	}
}

func TestRuntimeFamiliesLintClean(t *testing.T) {
	fams := RuntimeFamilies()
	if problems := Lint(fams); len(problems) != 0 {
		t.Fatalf("runtime families lint: %v", problems)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !names[want] {
			t.Errorf("missing runtime family %s", want)
		}
	}
}

// TestLabelValueEscaping pins text format 0.0.4's label-value escaping:
// only backslash, double quote and newline are escaped, other valid UTF-8
// is written as is and invalid UTF-8 becomes U+FFFD. LintExposition
// rejects any other escape, such as the Go-style ones %q would write.
func TestLabelValueEscaping(t *testing.T) {
	cases := []struct {
		name, value, wire, goWire string
	}{
		{"tab", "a\tb", "a\tb", `a\tb`},
		{"control byte", "a\x01b", "a\x01b", `a\x01b`},
		{"no-break space", "a\u00a0b", "a\u00a0b", `a\u00a0b`},
		{"invalid UTF-8", "caf\xe9", "caf\ufffd", `caf\xe9`},
	}
	for _, tc := range cases {
		var sb strings.Builder
		fam := MetricFamily{Name: "x", Help: "h", Type: Gauge, Samples: []Sample{{Labels: []Label{{"l", tc.value}}, Value: 1}}}
		if err := WriteExposition(&sb, []MetricFamily{fam}); err != nil {
			t.Fatal(err)
		}
		want := "# HELP x h\n# TYPE x gauge\nx{l=\"" + tc.wire + "\"} 1\n"
		if sb.String() != want {
			t.Errorf("%s: rendered %q, want %q", tc.name, sb.String(), want)
		}
		if problems := LintExposition(strings.NewReader(want)); len(problems) != 0 {
			t.Errorf("%s: lint flags the correct rendering: %v", tc.name, problems)
		}
		bad := "# TYPE x gauge\nx{l=\"" + tc.goWire + "\"} 1\n"
		problems := LintExposition(strings.NewReader(bad))
		if len(problems) != 1 || !strings.Contains(problems[0], "invalid escape") {
			t.Errorf("%s: lint of %q = %v, want one invalid-escape problem", tc.name, bad, problems)
		}
	}
}

// FuzzWriteExposition renders families with arbitrary help text, label
// values and an exemplar trace ID. The output must pass Lint and
// LintExposition, and the help text and every label value must parse back
// equal to the input, each byte of invalid UTF-8 read as U+FFFD.
func FuzzWriteExposition(f *testing.F) {
	f.Add("Requests by route.", `GET /v1/diff?a="x"`, "4bf92f3577b34da6a3ce929d0e0e4736")
	f.Add("two\nlines \\ here", "a\tb\x01c\u00a0", "caf\xe9")
	f.Add("h", `\n\\"`, "}{,=# {")
	f.Fuzz(func(t *testing.T, help, value, trace string) {
		if help == "" {
			t.Skip("Lint requires HELP text")
		}
		fams := []MetricFamily{
			{Name: "fz_total", Help: help, Type: Counter, Samples: []Sample{{Labels: []Label{{"a", value}, {"b", trace}}, Value: 1}}},
			{Name: "fz_seconds", Help: help, Type: Histogram, Samples: HistogramSamplesExemplars(
				[]Label{{"a", value}}, []float64{1}, []uint64{1, 0}, 0.5, []*Exemplar{{TraceID: trace, Seconds: 0.5}})},
		}
		if problems := Lint(fams); len(problems) != 0 {
			t.Fatalf("Lint: %v", problems)
		}
		var sb strings.Builder
		if err := WriteExposition(&sb, fams); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		if problems := LintExposition(strings.NewReader(text)); len(problems) != 0 {
			t.Fatalf("LintExposition: %v\n%s", problems, text)
		}

		want := map[string]string{"a": string([]rune(value)), "b": string([]rune(trace)), "trace_id": string([]rune(trace))}
		unescapeHelp := strings.NewReplacer(`\\`, `\`, `\n`, "\n")
		exemplars := 0
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if h, ok := strings.CutPrefix(line, "# HELP "); ok {
				_, got, _ := strings.Cut(h, " ")
				if got = unescapeHelp.Replace(got); got != string([]rune(help)) {
					t.Errorf("help parsed back as %q, want %q", got, string([]rune(help)))
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			open := strings.IndexByte(line, '{')
			end, err := closingBrace(line, open)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sets := []string{line[open+1 : end]}
			if _, ex, ok := strings.Cut(line[end+1:], "# "); ok {
				exEnd, err := closingBrace(ex, 0)
				if err != nil {
					t.Fatalf("exemplar in %q: %v", line, err)
				}
				sets = append(sets, ex[1:exEnd])
				exemplars++
			}
			for _, set := range sets {
				labels, err := parseLabels(set)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				for _, l := range labels {
					if w, ok := want[l.Name]; ok && l.Value != w {
						t.Errorf("label %s parsed back as %q, want %q", l.Name, l.Value, w)
					}
				}
			}
		}
		if wantEx := len(trace) > 0; (exemplars == 1) != wantEx {
			t.Errorf("%d exemplars rendered for trace ID %q", exemplars, trace)
		}
	})
}
