package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Generator limits. The latency limit is trustd's own latency SLO
// (internal/service/slo.go: 99% of requests under 100 ms).
const (
	sloLatency = 100 * time.Millisecond
	// shedAfter: a request still queued this long after its scheduled send
	// is dropped by the generator and counted as failed.
	shedAfter = time.Second
	// maxSchedLag: a generator whose p99 dispatch lag exceeds this fell
	// behind its own schedule, so the phase measured the generator rather
	// than the server.
	maxSchedLag = 50 * time.Millisecond
)

var errShed = errors.New("shed: queued longer than " + shedAfter.String())

// op is one request the generator sends.
type op struct {
	class  string // verify, batch, read, simulate, sweep
	method string
	path   string
	body   []byte
	inm    string // If-None-Match, or ""
	// check validates a response after the phase; nil accepts any 2xx.
	check func(status int, gen string, body []byte) error
}

// sample is one request's outcome. Times are offsets from the phase start.
type sample struct {
	op                *op
	id                string
	sched, start, end time.Duration
	status            int
	gen               string // X-Rootpack-Hash
	body              []byte
	err               error
}

// latency is the open-loop latency from the scheduled send, or failed.
func (s *sample) latency() time.Duration {
	if s.err != nil {
		return failed
	}
	return s.end - s.sched
}

// phase is what one load phase measured.
type phase struct {
	name     string
	rate     float64 // offered rate, 0 for a closed loop
	t0       time.Time
	samples  []sample
	lag      []time.Duration // dispatch lag per scheduled request
	round    int             // consecutive samples in one round (see quiet)
	elapsed  time.Duration
	cpu      time.Duration
	gcCPU    time.Duration // part of cpu spent by the collector
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
}

// runStats captures the process counters a phase is charged with.
type runStats struct {
	at    time.Time
	cpu   time.Duration
	gcCPU time.Duration // the runtime's estimate of the collector's CPU time
	mem   runtime.MemStats
}

func readStats() runStats {
	var s runStats
	runtime.ReadMemStats(&s.mem)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = time.Duration(gc[0].Value.Float64() * float64(time.Second))
	}
	s.at, s.cpu = time.Now(), cpuTime()
	return s
}

func (p *phase) charge(from, to runStats) {
	p.elapsed = to.at.Sub(from.at)
	p.cpu = to.cpu - from.cpu
	p.gcCPU = to.gcCPU - from.gcCPU
	p.alloc = to.mem.TotalAlloc - from.mem.TotalAlloc
	p.mallocs = to.mem.Mallocs - from.mem.Mallocs
	p.gcCycles = to.mem.NumGC - from.mem.NumGC
}

// failures counts samples that failed.
func (p *phase) failures() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].err != nil {
			n++
		}
	}
	return n
}

// latencies returns the sorted open-loop latencies of the phase's samples
// whose class is in classes (all when empty).
func (p *phase) latencies(classes ...string) []time.Duration {
	var out []time.Duration
	for i := range p.samples {
		if len(classes) == 0 || contains(classes, p.samples[i].op.class) {
			out = append(out, p.samples[i].latency())
		}
	}
	return sortedDurations(out)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// generator drives load from a fixed set of connections: one goroutine per
// connection, at most nproc of them, each with its own transport capped at
// one connection. dials counts every connection opened, so a run that
// churned connections shows it.
type generator struct {
	base    string
	clients []*http.Client
	dials   atomic.Int64
	tr      *tracer // nil: no client spans, no request IDs
}

func newGenerator(base string, conns int) *generator {
	g := &generator{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	for i := 0; i < conns; i++ {
		t := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err == nil {
					g.dials.Add(1)
				}
				return c, err
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		g.clients = append(g.clients, &http.Client{Transport: t, Timeout: 30 * time.Second})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// send issues one request on a client and fills the sample's timing,
// status, generation and body.
func (g *generator) send(c *http.Client, o *op, s *sample, t0 time.Time) {
	req, err := http.NewRequest(o.method, g.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return
	}
	if o.inm != "" {
		req.Header.Set("If-None-Match", o.inm)
	}
	if g.tr != nil {
		req.Header.Set(requestIDHeader, s.id)
	}
	start := time.Now()
	s.start = start.Sub(t0)
	resp, err := c.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.gen = resp.Header.Get("X-Rootpack-Hash")
	}
	end := time.Now()
	s.end = end.Sub(t0)
	if err != nil {
		s.err = fmt.Errorf("transport: %w", err)
	}
	g.tr.record("client.request", s.id, "", o.class, start, end)
}

// settle collects the heap before a measured phase, so garbage left by
// set-up or an earlier phase does not decide when collections fall in it.
// The ladder's rungs share one collection: they are not scored, and a
// collection of the corpus per rung costs a fifth of a second.
func settle() { runtime.GC() }

// openLoop sends ops[i] at start + i/rate regardless of how earlier
// requests fare. A dispatcher queues each request at its due time; the
// connection goroutines take requests off the queue, so a slow server
// makes requests wait in the queue, and that wait counts in their latency.
func (g *generator) openLoop(name string, rate float64, ops []*op) *phase {
	p := &phase{name: name, rate: rate, samples: make([]sample, len(ops)), lag: make([]time.Duration, len(ops))}
	p.round = max(1, int(rate*roundLength.Seconds()))
	interval := float64(time.Second) / rate
	queue := make(chan int, len(ops))
	before := readStats()
	t0 := before.at
	p.t0 = t0
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				s := &p.samples[i]
				if time.Since(t0)-s.sched > shedAfter {
					s.err = errShed
					s.start, s.end = s.sched, s.sched
					continue
				}
				g.send(c, s.op, s, t0)
			}
		}(c)
	}
	for i, o := range ops {
		due := time.Duration(float64(i) * interval)
		p.samples[i] = sample{op: o, id: name + "-" + strconv.Itoa(i), sched: due}
		if d := due - time.Since(t0); d > 0 {
			pause(d)
		}
		p.lag[i] = time.Since(t0) - due
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.charge(before, readStats())
	return p
}

// pause waits for d with the kernel's high-resolution sleep. Go's timers
// can wake a millisecond late, which would add up to a millisecond of
// generator lag to every request; nanosleep wakes within tens of
// microseconds.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// closedLoop sends ops back to back on one connection until d has passed,
// cycling through ops. Each sample's latency is its own round trip.
func (g *generator) closedLoop(name string, d time.Duration, ops []*op) *phase {
	p := &phase{name: name}
	before := readStats()
	t0 := before.at
	p.t0 = t0
	for i := 0; i == 0 || time.Since(t0) < d; i++ {
		s := sample{op: ops[i%len(ops)], id: name + "-" + strconv.Itoa(i), sched: time.Since(t0)}
		g.send(g.clients[0], s.op, &s, t0)
		p.samples = append(p.samples, s)
	}
	p.charge(before, readStats())
	p.round = max(1, int(float64(len(p.samples))*roundLength.Seconds()/p.elapsed.Seconds()))
	return p
}

// joinPhases joins slices of one phase into one: their samples in order,
// their counters summed. Each sample keeps its times relative to its own
// slice. An open-loop slice of whole rounds keeps its rounds; a closed
// loop's rounds are recounted over the joined elapsed time.
func joinPhases(ps []*phase) *phase {
	out := &phase{name: ps[0].name, rate: ps[0].rate, t0: ps[0].t0, round: ps[0].round}
	for _, p := range ps {
		out.samples = append(out.samples, p.samples...)
		out.lag = append(out.lag, p.lag...)
		out.elapsed += p.elapsed
		out.cpu += p.cpu
		out.gcCPU += p.gcCPU
		out.alloc += p.alloc
		out.mallocs += p.mallocs
		out.gcCycles += p.gcCycles
	}
	if out.rate == 0 {
		out.round = max(1, int(float64(len(out.samples))*roundLength.Seconds()/out.elapsed.Seconds()))
	}
	return out
}

// shareGC re-attributes the collector's CPU time among phases that ran
// interleaved, in proportion to the bytes each allocated: which phase a
// collection falls in decides only when it runs, not whose garbage it
// collects. Left where it fell, one to six collections of the corpus-sized
// heap landed in verify-cold's reference slices from run to run, and its
// cpu_ms_per_op spread by 0.17.
func shareGC(ps ...*phase) {
	var gc time.Duration
	var alloc uint64
	for _, p := range ps {
		gc += p.gcCPU
		alloc += p.alloc
	}
	if alloc == 0 {
		return
	}
	for _, p := range ps {
		share := time.Duration(float64(gc) * float64(p.alloc) / float64(alloc))
		p.cpu += share - p.gcCPU
		p.gcCPU = share
	}
}

// checkAll runs every sample's output check and records failures.
func checkAll(p *phase) {
	for i := range p.samples {
		s := &p.samples[i]
		if s.err != nil {
			continue
		}
		switch {
		case s.op.check != nil:
			if err := s.op.check(s.status, s.gen, s.body); err != nil {
				s.err = fmt.Errorf("%s %s: %w", s.op.method, s.op.path, err)
			}
		case s.status/100 != 2:
			s.err = fmt.Errorf("%s %s: status %d", s.op.method, s.op.path, s.status)
		}
		s.body = nil
	}
}

// schedLagP99 is the p99 of the dispatcher's lag behind its schedule.
func (p *phase) schedLagP99() time.Duration {
	return quantile(sortedDurations(p.lag), 0.99)
}

// backlogGrew reports whether requests queued longer at the end of the
// phase than at its start: the median queue wait of the last quarter of
// the schedule exceeds the first quarter's by more than 5 ms.
func (p *phase) backlogGrew() bool {
	n := len(p.samples)
	if n < 8 {
		return false
	}
	wait := func(lo, hi int) time.Duration {
		var ws []time.Duration
		for i := lo; i < hi; i++ {
			s := &p.samples[i]
			if s.err == errShed {
				ws = append(ws, shedAfter)
				continue
			}
			ws = append(ws, s.start-s.sched)
		}
		return medianDur(ws)
	}
	return wait(3*n/4, n)-wait(0, n/4) > 5*time.Millisecond
}
