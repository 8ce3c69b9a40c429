package obs

// Prometheus text-format exposition (version 0.0.4), built from plain
// values at scrape time, with no background state. A service declares
// its own metrics once in a Registry (registry.go), whose Families feed
// WriteExposition; subsystems without one (the tracker, the cluster
// fabric, the Go runtime) assemble []MetricFamily directly. The writer
// renders them with stable ordering and the format's escaping. Lint and
// LintExposition are the promlint-style checks the golden tests and the
// hermetic smoke binaries run against the output.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MetricType is the TYPE annotation of a family.
type MetricType string

// Exposition metric types.
const (
	Counter   MetricType = "counter"
	Gauge     MetricType = "gauge"
	Histogram MetricType = "histogram"
	Untyped   MetricType = "untyped"
)

// Label is one name="value" pair; order within a sample is preserved.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line. Suffix is appended to the family name —
// histogram families use "_bucket", "_sum" and "_count"; scalar families
// leave it empty. A histogram _bucket sample may carry an Exemplar,
// rendered OpenMetrics-style after the value
// (`… 17 # {trace_id="<hex>"} 0.42`) so a scrape links the bucket to a
// concrete trace in /debug/traces.
type Sample struct {
	Suffix   string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// MetricFamily is one named metric with its samples.
type MetricFamily struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// CounterFamily builds a single-sample counter.
func CounterFamily(name, help string, v float64) MetricFamily {
	return MetricFamily{Name: name, Help: help, Type: Counter, Samples: []Sample{{Value: v}}}
}

// GaugeFamily builds a single-sample gauge.
func GaugeFamily(name, help string, v float64) MetricFamily {
	return MetricFamily{Name: name, Help: help, Type: Gauge, Samples: []Sample{{Value: v}}}
}

// HistogramSamples renders one histogram series: per-bucket counts
// (counts[i] observations at most bounds[i], counts[len(bounds)] beyond
// the last bound) become cumulative _bucket samples with le labels
// ending at +Inf, plus _sum and _count. labels are attached to every
// sample (e.g. the route).
func HistogramSamples(labels []Label, bounds []float64, counts []uint64, sum float64) []Sample {
	out := make([]Sample, 0, len(bounds)+3)
	var cum uint64
	for i, le := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		out = append(out, Sample{
			Suffix: "_bucket",
			Labels: append(append([]Label(nil), labels...), Label{"le", formatValue(le)}),
			Value:  float64(cum),
		})
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	out = append(out,
		Sample{Suffix: "_bucket", Labels: append(append([]Label(nil), labels...), Label{"le", "+Inf"}), Value: float64(cum)},
		Sample{Suffix: "_sum", Labels: append([]Label(nil), labels...), Value: sum},
		Sample{Suffix: "_count", Labels: append([]Label(nil), labels...), Value: float64(cum)},
	)
	return out
}

// HistogramSamplesExemplars is HistogramSamples plus per-bucket
// exemplars: exemplars is index-parallel to counts (overflow last, nil
// entries allowed) and each non-nil entry is attached to its bucket's
// sample, the overflow exemplar to the +Inf bucket.
func HistogramSamplesExemplars(labels []Label, bounds []float64, counts []uint64, sum float64, exemplars []*Exemplar) []Sample {
	out := HistogramSamples(labels, bounds, counts, sum)
	for i := 0; i <= len(bounds) && i < len(exemplars); i++ {
		if exemplars[i] != nil && i < len(out) {
			out[i].Exemplar = exemplars[i]
		}
	}
	return out
}

// WriteExposition renders the families as Prometheus text format with
// deterministic ordering: families sorted by name, samples by suffix and
// label signature. Ordering stability is what makes the golden test and
// conditional scraping diffs meaningful.
func WriteExposition(w io.Writer, families []MetricFamily) error {
	fams := append([]MetricFamily(nil), families...)
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s ", f.Name)
			writeEscaped(bw, f.Help, false)
			bw.WriteByte('\n')
		}
		typ := f.Type
		if typ == "" {
			typ = Untyped
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, typ)
		samples := append([]Sample(nil), f.Samples...)
		sort.SliceStable(samples, func(i, j int) bool {
			if samples[i].Suffix != samples[j].Suffix {
				return samples[i].Suffix < samples[j].Suffix
			}
			return labelSig(samples[i].Labels) < labelSig(samples[j].Labels)
		})
		for _, s := range samples {
			bw.WriteString(f.Name)
			bw.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					writeEscaped(bw, l.Value, true)
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			if s.Exemplar != nil && s.Exemplar.TraceID != "" {
				// OpenMetrics-style exemplar suffix — an extension
				// over text format 0.0.4 (the content type stays
				// 0.0.4; LintExposition accepts and validates it).
				bw.WriteString(` # {trace_id="`)
				writeEscaped(bw, s.Exemplar.TraceID, true)
				bw.WriteString(`"} `)
				bw.WriteString(formatValue(s.Exemplar.Seconds))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// labelSig orders samples within a family. The le label sorts numerically
// so histogram buckets come out in bound order, not lexical order.
func labelSig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		if l.Name == "le" {
			// '~' sorts after every digit, so +Inf lands last.
			key := "~inf"
			if l.Value != "+Inf" {
				if f, err := strconv.ParseFloat(l.Value, 64); err == nil {
					key = fmt.Sprintf("%030.9f", f)
				}
			}
			fmt.Fprintf(&b, "le\x00%s\x00", key)
			continue
		}
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeEscaped writes s escaped as text format 0.0.4 defines: backslash
// and newline as \\ and \n, and in label values (quoted) the double quote
// as \". Nothing else is escaped: other valid UTF-8 is written as is, and
// each byte of invalid UTF-8 becomes U+FFFD.
func writeEscaped(bw *bufio.Writer, s string, quoted bool) {
	for _, r := range s {
		switch {
		case r == '\\':
			bw.WriteString(`\\`)
		case r == '\n':
			bw.WriteString(`\n`)
		case r == '"' && quoted:
			bw.WriteString(`\"`)
		default:
			bw.WriteRune(r)
		}
	}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Lint runs promlint-style checks over families before rendering:
// name/label charsets, counter naming, histogram shape (a +Inf bucket,
// cumulative monotone counts, _count == +Inf bucket), duplicate series.
// It returns human-readable problems, empty when clean.
func Lint(families []MetricFamily) []string {
	var problems []string
	seenFamily := map[string]bool{}
	for _, f := range families {
		if !metricNameRe.MatchString(f.Name) {
			problems = append(problems, fmt.Sprintf("%s: invalid metric name", f.Name))
			continue
		}
		if seenFamily[f.Name] {
			problems = append(problems, fmt.Sprintf("%s: duplicate family", f.Name))
		}
		seenFamily[f.Name] = true
		if f.Help == "" {
			problems = append(problems, fmt.Sprintf("%s: no HELP text", f.Name))
		}
		if f.Type == Counter && !strings.HasSuffix(f.Name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: counter name should end in _total", f.Name))
		}
		seenSeries := map[string]bool{}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if !labelNameRe.MatchString(l.Name) {
					problems = append(problems, fmt.Sprintf("%s: invalid label name %q", f.Name, l.Name))
				}
			}
			key := s.Suffix + "\x00" + labelSig(s.Labels)
			if seenSeries[key] {
				problems = append(problems, fmt.Sprintf("%s%s: duplicate series %v", f.Name, s.Suffix, s.Labels))
			}
			seenSeries[key] = true
			if s.Exemplar != nil && (f.Type != Histogram || s.Suffix != "_bucket") {
				problems = append(problems, fmt.Sprintf("%s%s: exemplar on non-bucket sample", f.Name, s.Suffix))
			}
			if f.Type == Histogram {
				switch s.Suffix {
				case "_bucket", "_sum", "_count":
				default:
					problems = append(problems, fmt.Sprintf("%s: histogram sample with suffix %q", f.Name, s.Suffix))
				}
			} else if s.Suffix != "" {
				problems = append(problems, fmt.Sprintf("%s: non-histogram sample with suffix %q", f.Name, s.Suffix))
			}
		}
		if f.Type == Histogram {
			problems = append(problems, lintHistogram(f)...)
		}
	}
	return problems
}

// lintHistogram checks each histogram series (grouped by its non-le
// labels) for a +Inf bucket, monotone cumulative counts and a matching
// _count.
func lintHistogram(f MetricFamily) []string {
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	groups := map[string]*series{}
	groupOf := func(labels []Label) *series {
		var rest []Label
		for _, l := range labels {
			if l.Name != "le" {
				rest = append(rest, l)
			}
		}
		key := labelSig(rest)
		g, ok := groups[key]
		if !ok {
			g = &series{}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		g := groupOf(s.Labels)
		switch s.Suffix {
		case "_bucket":
			le := math.Inf(1)
			for _, l := range s.Labels {
				if l.Name == "le" && l.Value != "+Inf" {
					le, _ = strconv.ParseFloat(l.Value, 64)
				}
			}
			g.les = append(g.les, le)
			g.counts = append(g.counts, s.Value)
		case "_count":
			g.count, g.hasCnt = s.Value, true
		}
	}
	var problems []string
	for _, g := range groups {
		if len(g.les) == 0 {
			continue
		}
		sort.Sort(&bucketSort{g.les, g.counts})
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			problems = append(problems, fmt.Sprintf("%s: histogram series missing +Inf bucket", f.Name))
			continue
		}
		for i := 1; i < len(g.counts); i++ {
			if g.counts[i] < g.counts[i-1] {
				problems = append(problems, fmt.Sprintf("%s: histogram buckets not cumulative", f.Name))
				break
			}
		}
		if g.hasCnt && g.count != g.counts[len(g.counts)-1] {
			problems = append(problems, fmt.Sprintf("%s: _count != +Inf bucket", f.Name))
		}
	}
	return problems
}

// bucketSort co-sorts bucket bounds and counts.
type bucketSort struct {
	les    []float64
	counts []float64
}

func (b *bucketSort) Len() int           { return len(b.les) }
func (b *bucketSort) Less(i, j int) bool { return b.les[i] < b.les[j] }
func (b *bucketSort) Swap(i, j int) {
	b.les[i], b.les[j] = b.les[j], b.les[i]
	b.counts[i], b.counts[j] = b.counts[j], b.counts[i]
}

// LintExposition parses rendered text format and re-checks it: every
// sample must belong to a declared TYPE, names and values must parse,
// histograms must carry +Inf buckets. It is the wire-level guard the CI
// smoke steps run against a live /metrics/prometheus response.
func LintExposition(r io.Reader) []string {
	var problems []string
	types := map[string]MetricType{}
	infSeen := map[string]bool{}
	bucketSeen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if !utf8.ValidString(line) {
			problems = append(problems, fmt.Sprintf("line %d: invalid UTF-8", lineNo))
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("line %d: malformed TYPE line", lineNo))
				continue
			}
			name, typ := fields[2], MetricType(fields[3])
			if _, dup := types[name]; dup {
				problems = append(problems, fmt.Sprintf("line %d: duplicate TYPE for %s", lineNo, name))
			}
			switch typ {
			case Counter, Gauge, Histogram, Untyped, "summary":
			default:
				problems = append(problems, fmt.Sprintf("line %d: unknown type %q", lineNo, typ))
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			problems = append(problems, fmt.Sprintf("line %d: %v", lineNo, err))
			continue
		}
		if _, err := parsePromValue(value); err != nil {
			problems = append(problems, fmt.Sprintf("line %d: bad value %q", lineNo, value))
		}
		if _, err := parseLabels(labels); err != nil {
			problems = append(problems, fmt.Sprintf("line %d: %v", lineNo, err))
		}
		base, ok := familyOf(name, types)
		if !ok {
			problems = append(problems, fmt.Sprintf("line %d: sample %s has no TYPE declaration", lineNo, name))
			continue
		}
		if types[base] == Histogram && strings.HasSuffix(name, "_bucket") {
			bucketSeen[base] = true
			if strings.Contains(labels, `le="+Inf"`) {
				infSeen[base] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("read: %v", err))
	}
	for base := range bucketSeen {
		if !infSeen[base] {
			problems = append(problems, fmt.Sprintf("%s: histogram without +Inf bucket", base))
		}
	}
	return problems
}

// familyOf resolves a sample name to its declared family, trying the
// bare name first and then stripping histogram/summary suffixes.
func familyOf(name string, types map[string]MetricType) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, declared := types[base]; declared && (t == Histogram || t == "summary") {
				return base, true
			}
		}
	}
	return "", false
}

func parseSampleLine(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		// Scan for the label set's own closing brace (quote-aware) —
		// an exemplar suffix carries a second {...} later in the line,
		// so a LastIndexByte would grab the wrong one.
		j, berr := closingBrace(rest, i)
		if berr != nil {
			return "", "", "", berr
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", "", fmt.Errorf("malformed sample line")
		}
		name = fields[0]
		rest = strings.TrimSpace(strings.TrimPrefix(rest, name))
	}
	if !metricNameRe.MatchString(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	// Split off an OpenMetrics-style exemplar (` # {…} value [ts]`)
	// before counting fields; the labels are already stripped, so the
	// first '#' here can only start an exemplar.
	var exemplar string
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		exemplar = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // value [timestamp]
		return "", "", "", fmt.Errorf("malformed sample line")
	}
	if exemplar != "" {
		if eerr := lintExemplar(exemplar); eerr != nil {
			return "", "", "", eerr
		}
	}
	return name, labels, fields[0], nil
}

// closingBrace finds the index of the '}' matching the '{' at open,
// skipping braces inside quoted label values.
func closingBrace(s string, open int) (int, error) {
	inStr := false
	for i := open + 1; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '\\' {
				i++
			} else if s[i] == '"' {
				inStr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == '}':
			return i, nil
		}
	}
	return 0, fmt.Errorf("unbalanced braces")
}

// lintExemplar validates the part after a sample's '#': a {label="v"}
// set followed by a value and an optional timestamp.
func lintExemplar(s string) error {
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	j, err := closingBrace(s, 0)
	if err != nil {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	if _, err := parseLabels(s[1:j]); err != nil {
		return fmt.Errorf("exemplar: %v", err)
	}
	fields := strings.Fields(strings.TrimSpace(s[j+1:]))
	if len(fields) < 1 || len(fields) > 2 { // value [timestamp]
		return fmt.Errorf("exemplar missing value in %q", s)
	}
	if _, err := parsePromValue(fields[0]); err != nil {
		return fmt.Errorf("bad exemplar value %q", fields[0])
	}
	return nil
}

// parseLabels parses the body of a label set (the text between the
// braces) and unescapes each value. The only escapes text format 0.0.4
// defines are \\, \" and \n; any other is an error.
func parseLabels(body string) ([]Label, error) {
	var labels []Label
	for rest := strings.TrimSpace(body); rest != ""; {
		name, after, ok := strings.Cut(rest, "=")
		name, after = strings.TrimSpace(name), strings.TrimSpace(after)
		if !ok || !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("malformed label %q", rest)
		}
		if !strings.HasPrefix(after, `"`) {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		var val strings.Builder
		i := 1
		for ; i < len(after) && after[i] != '"'; i++ {
			c := after[i]
			if c == '\\' && i+1 < len(after) {
				i++
				switch after[i] {
				case '\\', '"':
					c = after[i]
				case 'n':
					c = '\n'
				default:
					return nil, fmt.Errorf("label %s: invalid escape %q", name, after[i-1:i+1])
				}
			}
			val.WriteByte(c)
		}
		if i >= len(after) {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
		rest = strings.TrimSpace(after[i+1:])
		if rest != "" && rest[0] != ',' {
			return nil, fmt.Errorf("label %s: want ',' after value", name)
		}
		rest = strings.TrimPrefix(rest, ",")
	}
	return labels, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// RuntimeFamilies reports the Go runtime's health at call time:
// goroutines, heap, and GC pause totals — the gauges every serving stack
// scrapes next to its own counters.
func RuntimeFamilies() []MetricFamily {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []MetricFamily{
		GaugeFamily("go_goroutines", "Number of goroutines that currently exist.", float64(runtime.NumGoroutine())),
		GaugeFamily("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc)),
		GaugeFamily("go_heap_inuse_bytes", "Bytes in in-use heap spans.", float64(ms.HeapInuse)),
		GaugeFamily("go_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects)),
		CounterFamily("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC)),
		CounterFamily("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9),
		GaugeFamily("go_next_gc_bytes", "Heap size target of the next GC cycle.", float64(ms.NextGC)),
	}
}
