package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the benchmark's request ID from the generator to
// the middleware, so a client span and a handler span can be joined.
const requestIDHeader = "X-Bench-Request-Id"

// span is one timed interval recorded by the benchmark. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	Parent    string `json:"parent,omitempty"`
	Class     string `json:"class,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how tracing is switched off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record stores a finished span.
func (t *tracer) record(name, requestID, parent, class string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, RequestID: requestID, Parent: parent, Class: class, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs fn under a span and returns its duration. It times fn even
// when tracing is off.
func (t *tracer) time(name, class string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, "", "", class, start, end)
	return end.Sub(start)
}

// named returns the durations of every span with the name (and class, when
// class is non-empty).
func (t *tracer) named(name, class string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, s.dur())
		}
	}
	return out
}

// byRequest indexes the spans with the name by request ID.
func (t *tracer) byRequest(name string) map[string]span {
	out := map[string]span{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.RequestID != "" {
			out[s.RequestID] = s
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware wraps the server's handler. With a tracer attached it records
// a service.handler span per request carrying a request ID; without one
// it only forwards.
type middleware struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.tr.Load()
	id := r.Header.Get(requestIDHeader)
	if tr == nil || id == "" {
		m.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	m.next.ServeHTTP(w, r)
	tr.record("service.handler", id, "client.request", routeClass(r), start, time.Now())
}

// routeClass names the handler family of a request for per-route spans.
func routeClass(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/verify":
		return "verify"
	case p == "/v1/verify/batch":
		return "batch"
	case p == "/v1/simulate":
		return "simulate"
	case p == "/v1/simulate/sweep":
		return "sweep"
	default:
		return "read"
	}
}
