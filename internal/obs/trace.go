// Package obs is the module's dependency-free observability layer:
// W3C-traceparent-compatible request tracing into a bounded in-process
// ring buffer, a metric registry with Prometheus text-format exposition,
// Go runtime gauges, and an opt-in debug mux (pprof + trace inspection).
// Everything is stdlib only, like the rest of the module.
//
// The tracing model is deliberately small. A Tracer starts root spans
// (one per request or background operation); any code that holds the
// resulting context can open child spans with StartSpan without ever
// touching the Tracer. Finished traces land in a fixed-size ring of
// atomic pointers — writers never block, readers snapshot — plus a
// slowest-N board, so "what just happened" and "what was slow" are both
// answerable from /debug/traces with zero external infrastructure.
package obs

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the W3C trace-id: 16 bytes, all-zero invalid.
type TraceID [16]byte

// SpanID is the W3C parent-id/span-id: 8 bytes, all-zero invalid.
type SpanID [8]byte

func (t TraceID) String() string { return hexString(t[:]) }
func (t TraceID) IsZero() bool   { return t == TraceID{} }
func (s SpanID) String() string  { return hexString(s[:]) }
func (s SpanID) IsZero() bool    { return s == SpanID{} }

// hexString is hex.EncodeToString with a stack scratch buffer: one string
// allocation instead of two. IDs render on every span end, so this is on
// the request hot path.
func hexString(b []byte) string {
	var buf [32]byte
	n := hex.Encode(buf[:], b)
	return string(buf[:n])
}

// newTraceID and newSpanID draw non-zero random IDs. math/rand/v2's
// global generator is goroutine-safe and cheap — trace IDs need
// uniqueness, not unpredictability.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(a >> (8 * i))
		}
	}
	return s
}

// Traceparent is a parsed W3C trace-context header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>").
type Traceparent struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// String renders the version-00 wire form. Built by hand rather than with
// fmt: the header is re-rendered on every traced request.
func (tp Traceparent) String() string {
	const hexdigits = "0123456789abcdef"
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tp.TraceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], tp.SpanID[:])
	buf[52] = '-'
	buf[53], buf[54] = hexdigits[tp.Flags>>4], hexdigits[tp.Flags&0xf]
	return string(buf[:])
}

// ParseTraceparent parses a version-00 traceparent header. Unknown future
// versions are accepted if they carry the version-00 prefix fields, per
// the spec's forward-compatibility rule; "ff" and malformed values error.
func ParseTraceparent(h string) (Traceparent, error) {
	var tp Traceparent
	if len(h) < 55 {
		return tp, fmt.Errorf("obs: traceparent too short: %d chars, want >= 55", len(h))
	}
	if len(h) > 55 && h[55] != '-' {
		return tp, fmt.Errorf("obs: malformed traceparent: junk after flags")
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tp, fmt.Errorf("obs: malformed traceparent: bad separators")
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil {
		return tp, fmt.Errorf("obs: malformed traceparent version: %v", err)
	}
	if ver[0] == 0xff {
		return tp, fmt.Errorf("obs: invalid traceparent version ff")
	}
	if _, err := hex.Decode(tp.TraceID[:], []byte(h[3:35])); err != nil {
		return tp, fmt.Errorf("obs: malformed trace-id: %v", err)
	}
	if _, err := hex.Decode(tp.SpanID[:], []byte(h[36:52])); err != nil {
		return tp, fmt.Errorf("obs: malformed parent-id: %v", err)
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil {
		return tp, fmt.Errorf("obs: malformed trace-flags: %v", err)
	}
	tp.Flags = flags[0]
	if tp.TraceID.IsZero() {
		return tp, fmt.Errorf("obs: all-zero trace-id is invalid")
	}
	if tp.SpanID.IsZero() {
		return tp, fmt.Errorf("obs: all-zero parent-id is invalid")
	}
	return tp, nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a finished span as it appears in /debug/traces. IDs stay
// binary until marshalling: spans are recorded on every traced request
// but rendered only when someone reads the debug endpoint.
type SpanRecord struct {
	SpanID     SpanID
	ParentID   SpanID // zero when the span is a local root
	Name       string
	Start      time.Time
	DurationMS float64
	Attrs      []Attr
}

// MarshalJSON renders the wire shape ("span_id": "<16 hex>", …) the
// /debug/traces endpoint documents.
func (r SpanRecord) MarshalJSON() ([]byte, error) {
	type wire struct {
		SpanID     string    `json:"span_id"`
		ParentID   string    `json:"parent_id,omitempty"`
		Name       string    `json:"name"`
		Start      time.Time `json:"start"`
		DurationMS float64   `json:"duration_ms"`
		Attrs      []Attr    `json:"attrs,omitempty"`
	}
	w := wire{
		SpanID:     r.SpanID.String(),
		Name:       r.Name,
		Start:      r.Start,
		DurationMS: r.DurationMS,
		Attrs:      r.Attrs,
	}
	if !r.ParentID.IsZero() {
		w.ParentID = r.ParentID.String()
	}
	return json.Marshal(w)
}

// TraceRecord is a finished trace: the root span plus every child that
// ended before the root did.
type TraceRecord struct {
	TraceID      TraceID
	Name         string
	Start        time.Time
	DurationMS   float64
	RemoteParent SpanID // zero unless the trace continued a traceparent
	DroppedSpans int
	Spans        []SpanRecord
}

// MarshalJSON renders the wire shape ("trace_id": "<32 hex>", …) the
// /debug/traces endpoint documents.
func (r *TraceRecord) MarshalJSON() ([]byte, error) {
	type wire struct {
		TraceID      string       `json:"trace_id"`
		Name         string       `json:"name"`
		Start        time.Time    `json:"start"`
		DurationMS   float64      `json:"duration_ms"`
		BucketLE     string       `json:"bucket_le"`
		RemoteParent string       `json:"remote_parent,omitempty"`
		DroppedSpans int          `json:"dropped_spans,omitempty"`
		Spans        []SpanRecord `json:"spans"`
	}
	w := wire{
		TraceID:      r.TraceID.String(),
		Name:         r.Name,
		Start:        r.Start,
		DurationMS:   r.DurationMS,
		BucketLE:     HDRBucketLabelFor(r.DurationMS / 1e3),
		DroppedSpans: r.DroppedSpans,
		Spans:        r.Spans,
	}
	if !r.RemoteParent.IsZero() {
		w.RemoteParent = r.RemoteParent.String()
	}
	return json.Marshal(w)
}

// liveTrace accumulates a trace's finished spans until the root ends.
type liveTrace struct {
	tracer *Tracer
	id     TraceID
	flags  byte
	remote SpanID // parent span from an incoming traceparent, zero if local

	mu      sync.Mutex
	done    []SpanRecord
	dropped int
	final   bool // root ended; late spans are dropped
	discard bool
}

// Span is one timed operation within a trace. The zero Span and the nil
// *Span are both inert, so instrumented code needs no tracer-enabled
// conditionals.
type Span struct {
	tr     *liveTrace
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// TraceID returns the span's trace ID (zero for a no-op span).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SpanID returns the span's own ID (zero for a no-op span).
func (s *Span) SpanID() SpanID {
	if s == nil || s.tr == nil {
		return SpanID{}
	}
	return s.id
}

// Traceparent renders the outbound header value for propagating this
// span's context to a downstream service, and for echoing the trace ID
// back to the caller.
func (s *Span) Traceparent() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return Traceparent{TraceID: s.tr.id, SpanID: s.id, Flags: s.tr.flags | 1}.String()
}

// SetAttr annotates the span. Safe from multiple goroutines and on no-op
// spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make([]Attr, 0, 4)
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// maxSpanAttrs caps how many attributes a span accumulates via Annotate.
// Past the cap new annotations are dropped, not appended: the slice never
// regrows on a hot path, and the first attributes set (route, status,
// outcome) are the ones worth keeping.
const maxSpanAttrs = 16

// Annotate adds a bounded attribute to the span: like SetAttr, but past
// maxSpanAttrs the annotation is silently dropped instead of growing the
// slice. Instrumented hot paths (verify fan-out, cache tagging) use this
// so a pathological request can't balloon a span record. Safe on nil and
// no-op spans, where it is allocation-free.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < maxSpanAttrs {
		if s.attrs == nil {
			s.attrs = make([]Attr, 0, 4)
		}
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Discard marks the whole trace as not worth recording (e.g. a poll that
// found nothing). It must be called before the root span ends.
func (s *Span) Discard() {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.discard = true
	s.tr.mu.Unlock()
}

// End finishes the span. Ending the root span seals the trace and hands
// it to the tracer's ring buffer; child spans that end after the root are
// dropped (counted, not recorded). End is idempotent.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		SpanID:     s.id,
		ParentID:   s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(end.Sub(s.start)) / float64(time.Millisecond),
		Attrs:      s.attrs,
	}
	s.mu.Unlock()

	t := s.tr
	t.mu.Lock()
	if t.final {
		t.dropped++
		t.mu.Unlock()
		return
	}
	max := t.tracer.opt.MaxSpansPerTrace
	if !s.root && len(t.done) >= max {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.done = append(t.done, rec)
	if !s.root {
		t.mu.Unlock()
		return
	}
	t.final = true
	if t.discard {
		t.mu.Unlock()
		return
	}
	// final is set: nothing appends to done anymore, so hand the slice off
	// instead of copying it.
	spans := t.done
	t.done = nil
	dropped := t.dropped
	t.mu.Unlock()

	// Spans arrive in end order, which is nearly start order already;
	// insertion sort is ~linear here and avoids sort.Slice's closure.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start.Before(spans[j-1].Start); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	t.tracer.record(&TraceRecord{
		TraceID:      t.id,
		Name:         s.name,
		Start:        s.start,
		DurationMS:   rec.DurationMS,
		RemoteParent: t.remote,
		DroppedSpans: dropped,
		Spans:        spans,
	})
}

// spanKey is the context key carrying the active *Span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil (a usable no-op).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span. When the context
// carries no span (tracing disabled, or a call outside any trace) it
// returns the context unchanged and an inert span, so call sites never
// branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	child := parent.child(name)
	return ContextWithSpan(ctx, child), child
}

// StartLeafSpan opens a child span without deriving a new context — for
// leaf operations that start no spans of their own, it skips the
// context.WithValue allocation StartSpan pays. Nil-safe like StartSpan.
func StartLeafSpan(ctx context.Context, name string) *Span {
	parent := SpanFromContext(ctx)
	if parent == nil || parent.tr == nil {
		return nil
	}
	return parent.child(name)
}

func (s *Span) child(name string) *Span {
	return &Span{
		tr:     s.tr,
		name:   name,
		id:     newSpanID(),
		parent: s.id,
		start:  time.Now(),
	}
}

// Tracer records finished traces. The nil *Tracer is valid and records
// nothing.
type Tracer struct {
	opt     Options
	ring    *ring
	slowest *topK

	started atomic.Uint64
}

// Options tunes a Tracer; the zero value is usable.
type Options struct {
	// Capacity is the recent-trace ring size (default 256).
	Capacity int
	// SlowestCapacity is the slowest-N board size (default 16).
	SlowestCapacity int
	// MaxSpansPerTrace bounds per-trace span accumulation; extra spans
	// are counted as dropped (default 128).
	MaxSpansPerTrace int
	// SlowThreshold: a trace at least this slow emits one structured log
	// line carrying its trace ID (default 250ms; <0 disables).
	SlowThreshold time.Duration
	// Logger receives slow-trace lines (slog.Default when nil).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 256
	}
	if o.SlowestCapacity <= 0 {
		o.SlowestCapacity = 16
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 128
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 250 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// NewTracer builds a tracer with a bounded ring buffer.
func NewTracer(opt Options) *Tracer {
	opt = opt.withDefaults()
	return &Tracer{
		opt:     opt,
		ring:    newRing(opt.Capacity),
		slowest: newTopK(opt.SlowestCapacity),
	}
}

// Start opens a span. If ctx already carries one, the new span is its
// child within the same trace; otherwise a fresh trace begins with this
// span as root. A nil tracer returns inert spans.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := SpanFromContext(ctx); parent != nil && parent.tr != nil {
		return StartSpan(ctx, name)
	}
	return t.startRoot(ctx, name, newTraceID(), SpanID{}, 0)
}

// StartRemote opens a root span continuing an incoming traceparent: the
// trace keeps the caller's trace ID and records their span as the remote
// parent.
func (t *Tracer) StartRemote(ctx context.Context, name string, tp Traceparent) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name, tp.TraceID, tp.SpanID, tp.Flags)
}

func (t *Tracer) startRoot(ctx context.Context, name string, id TraceID, remote SpanID, flags byte) (context.Context, *Span) {
	t.started.Add(1)
	lt := &liveTrace{tracer: t, id: id, flags: flags, remote: remote,
		done: make([]SpanRecord, 0, 4)}
	root := &Span{
		tr:    lt,
		name:  name,
		id:    newSpanID(),
		start: time.Now(),
		root:  true,
	}
	root.parent = remote
	return ContextWithSpan(ctx, root), root
}

func (t *Tracer) record(rec *TraceRecord) {
	t.ring.add(rec)
	t.slowest.offer(rec)
	if th := t.opt.SlowThreshold; th > 0 && rec.DurationMS >= float64(th)/float64(time.Millisecond) {
		t.opt.Logger.Warn("slow trace",
			"trace_id", rec.TraceID,
			"name", rec.Name,
			"duration_ms", rec.DurationMS,
			"spans", len(rec.Spans))
	}
}

// Recent returns up to n finished traces, newest first.
func (t *Tracer) Recent(n int) []*TraceRecord {
	if t == nil {
		return nil
	}
	return t.ring.snapshot(n)
}

// Slowest returns up to n slowest finished traces, slowest first.
func (t *Tracer) Slowest(n int) []*TraceRecord {
	if t == nil {
		return nil
	}
	return t.slowest.snapshot(n)
}

// Started reports how many traces have been started (test/metrics hook).
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}
