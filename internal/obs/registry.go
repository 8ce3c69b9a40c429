package obs

// The metric registry. A service declares each metric once — its JSON
// key, its Prometheus name, its help text and its kind — and both views
// render from that declaration: Map is the expvar tree served as JSON
// (and publishable under expvar for /debug/vars), Families is the same
// values as Prometheus families for WriteExposition. Values live in
// expvar types, so the JSON view keeps expvar's wire format, and the
// handles a declaration returns are what hot paths record into: one
// atomic add, no lookup, no allocation.

import (
	"encoding/json"
	"expvar"
	"time"
)

// Registry holds one service's declared metrics. Declare every metric
// before serving: declaration is not safe concurrently with reads.
type Registry struct {
	prefix  string
	root    expvar.Map
	entries []entry
}

// entry is one Prometheus family: its name, help, type and how to read
// its samples at scrape time.
type entry struct {
	name, help string
	typ        MetricType
	samples    func() []Sample
}

// NewRegistry returns an empty registry whose Prometheus names all start
// with prefix.
func NewRegistry(prefix string) *Registry { return &Registry{prefix: prefix} }

// Map is the JSON view: every metric declared with a key.
func (r *Registry) Map() *expvar.Map { return &r.root }

// Families renders every metric declared with a name, reading each value
// once.
func (r *Registry) Families() []MetricFamily {
	fams := make([]MetricFamily, 0, len(r.entries))
	for _, e := range r.entries {
		fams = append(fams, MetricFamily{Name: r.prefix + e.name, Help: e.help, Type: e.typ, Samples: e.samples()})
	}
	return fams
}

// declare publishes v under key in the JSON view when key is set, and as
// the family prefix+name when name is set.
func (r *Registry) declare(key, name, help string, typ MetricType, v expvar.Var, samples func() []Sample) {
	if key != "" {
		r.root.Set(key, v)
	}
	if name != "" {
		r.entries = append(r.entries, entry{name: name, help: help, typ: typ, samples: samples})
	}
}

func single(v float64) []Sample { return []Sample{{Value: v}} }

// Counter declares an integer that only goes up.
func (r *Registry) Counter(key, name, help string) *expvar.Int {
	v := new(expvar.Int)
	r.declare(key, name, help, Counter, v, func() []Sample { return single(float64(v.Value())) })
	return v
}

// Gauge declares an integer that goes up and down.
func (r *Registry) Gauge(key, name, help string) *expvar.Int {
	v := new(expvar.Int)
	r.declare(key, name, help, Gauge, v, func() []Sample { return single(float64(v.Value())) })
	return v
}

// FloatGauge declares a float gauge whose Prometheus value is the JSON
// value times scale, for a family exported in a different unit (1e-3
// turns milliseconds into seconds).
func (r *Registry) FloatGauge(key, name, help string, scale float64) *expvar.Float {
	v := new(expvar.Float)
	r.declare(key, name, help, Gauge, v, func() []Sample { return single(v.Value() * scale) })
	return v
}

// String declares a JSON-only string value.
func (r *Registry) String(key string) *expvar.String {
	v := new(expvar.String)
	r.declare(key, "", "", "", v, nil)
	return v
}

// Labeled maps a series key to one label: the labels argument of the
// labelled kinds for a metric whose keys are the label's values.
func Labeled(name string) func(key string) []Label {
	return func(key string) []Label { return []Label{{Name: name, Value: key}} }
}

// CounterVec is a labelled counter: one expvar.Int per series key,
// created on first use, so the JSON view lists only series that exist.
type CounterVec struct{ expvar.Map }

// With returns key's counter, creating it at zero. Hot paths resolve a
// counter once and then add to the handle.
func (v *CounterVec) With(key string) *expvar.Int {
	v.Add(key, 0)
	c, _ := v.Get(key).(*expvar.Int)
	return c
}

// CounterVec declares a labelled counter; labels turns a series key into
// its Prometheus labels.
func (r *Registry) CounterVec(key, name, help string, labels func(key string) []Label) *CounterVec {
	v := new(CounterVec)
	r.declare(key, name, help, Counter, v, func() []Sample {
		var out []Sample
		v.Do(func(kv expvar.KeyValue) {
			if c, ok := kv.Value.(*expvar.Int); ok {
				out = append(out, Sample{Labels: labels(kv.Key), Value: float64(c.Value())})
			}
		})
		return out
	})
	return v
}

// funcVar is a scalar computed at read time.
type funcVar func() float64

func (f funcVar) String() string { return jsonString(f()) }

// funcVecVar is a set of series computed at read time, keyed like a
// CounterVec.
type funcVecVar func() map[string]float64

func (f funcVecVar) String() string { return jsonString(f()) }

func jsonString(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Func declares a scalar computed at read time, so a gauge that
// describes "now" (uptime, a generation counter) is true even in a
// process that never updates it.
func (r *Registry) Func(key, name, help string, typ MetricType, f func() float64) {
	r.declare(key, name, help, typ, funcVar(f), func() []Sample { return single(f()) })
}

// FuncVec declares labelled series computed at read time.
func (r *Registry) FuncVec(key, name, help string, typ MetricType, labels func(key string) []Label, f func() map[string]float64) {
	r.declare(key, name, help, typ, funcVecVar(f), func() []Sample {
		var out []Sample
		for k, x := range f() {
			out = append(out, Sample{Labels: labels(k), Value: x})
		}
		return out
	})
}

// HDRVec is a set of labelled HDR latency histograms, with exemplars, plus
// their aggregate. Series are added before the first observation, so
// observing reads the series map without locking.
type HDRVec struct {
	series map[string]*HDRHistogram
	all    *HDRHistogram
}

// HDRVec declares a labelled latency histogram. Its JSON view is a
// summary per series and for the aggregate ("all"): count, sum and
// headline quantiles in milliseconds. Its Prometheus view is one
// histogram series per labelled series that has observations, over the
// shared HDR bounds, with exemplars.
func (r *Registry) HDRVec(key, name, help string, labels func(key string) []Label) *HDRVec {
	v := &HDRVec{series: map[string]*HDRHistogram{}, all: NewHDRHistogramExemplars()}
	r.declare(key, name, help, Histogram, v, func() []Sample {
		var out []Sample
		for k, h := range v.series {
			if h.TotalCount() > 0 {
				s := h.Snapshot()
				out = append(out, HistogramSamplesExemplars(labels(k), hdrBounds, s.Counts, s.SumSeconds, h.Exemplars())...)
			}
		}
		return out
	})
	return v
}

// Add creates key's series. Call before the first observation.
func (v *HDRVec) Add(key string) { v.series[key] = NewHDRHistogramExemplars() }

// ObserveTrace records one duration into key's series, when added, and
// into the aggregate, keeping trace as the bucket's exemplar.
func (v *HDRVec) ObserveTrace(key string, d time.Duration, trace TraceID) {
	if h := v.series[key]; h != nil {
		h.ObserveTrace(d, trace)
	}
	v.all.ObserveTrace(d, trace)
}

// Snapshot returns key's series, the aggregate when key is "", and an
// empty snapshot for a key never added.
func (v *HDRVec) Snapshot(key string) HDRSnapshot {
	if key == "" {
		return v.all.Snapshot()
	}
	if h := v.series[key]; h != nil {
		return h.Snapshot()
	}
	return HDRSnapshot{}
}

// String renders the JSON summary.
func (v *HDRVec) String() string {
	out := make(map[string]map[string]float64, len(v.series)+1)
	add := func(key string, h *HDRHistogram) {
		s := h.Snapshot()
		out[key] = map[string]float64{
			"count":   float64(s.Count),
			"sum_ms":  s.SumSeconds * 1000,
			"p50_ms":  s.Quantile(0.50) * 1000,
			"p90_ms":  s.Quantile(0.90) * 1000,
			"p99_ms":  s.Quantile(0.99) * 1000,
			"p999_ms": s.Quantile(0.999) * 1000,
		}
	}
	add("all", v.all)
	for k, h := range v.series {
		add(k, h)
	}
	return jsonString(out)
}

// Value reads one metric through its JSON key, and reports whether it
// exists; sub names the series of a labelled metric. Histograms and
// strings have no single value.
func (r *Registry) Value(key string, sub ...string) (float64, bool) {
	var series string
	if len(sub) > 0 {
		series = sub[0]
	}
	switch v := r.root.Get(key).(type) {
	case *expvar.Int:
		return float64(v.Value()), true
	case *expvar.Float:
		return v.Value(), true
	case funcVar:
		return v(), true
	case *CounterVec:
		if c, ok := v.Get(series).(*expvar.Int); ok {
			return float64(c.Value()), true
		}
	case funcVecVar:
		x, ok := v()[series]
		return x, ok
	}
	return 0, false
}
