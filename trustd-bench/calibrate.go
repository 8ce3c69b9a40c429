package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"time"
)

// The reference host's speed drifts: over minutes, the same set-up of the
// same code took from 1x to 1.7x its best time, and the same verify run's
// request latency, batch time and CPU per request moved together by up to
// 40%. Runs of the same code then differ mostly by when they ran. Each run
// therefore also times two fixed kernels that use the standard library
// only, so no change to the program moves them: a calibration kernel
// (computation and memory) and a loopback round trip (wake-ups, syscalls
// and the HTTP stack). It samples both before set-up, after the run and,
// in the verify workloads, before each measured slice, so the samples
// cover the stretch of time the metrics were measured in. setup_s is
// scaled by calibrationRef over the calibration kernel's median: a scaled
// time reads as if the host had run the kernel in calibrationRef. The
// serving times (latency_p50_ms, job_s, cpu_ms_per_op) are scaled by the
// geometric mean of both kernels' ratios to their references, since a
// request both computes and waits on the loopback. Over six verify-hot
// runs on a drifting host this cut the spread (IQR over median) of
// latency_p50_ms from 0.34 to 0.07, of job_s from 0.36 to 0.13 and of
// cpu_ms_per_op from 0.27 to 0.09; either kernel alone tracked some
// metrics and missed others. The raw figures are printed beside the
// scaled ones.

// calibrationRef is the nominal kernel time scaled figures refer to. On
// the reference host (2 vCPUs at 2.1 GHz) the kernel took 20–45 ms.
const calibrationRef = 20 * time.Millisecond

// loopbackRef is the nominal loopback round trip. On the reference host
// it took 20–40 µs.
const loopbackRef = 25 * time.Microsecond

// loopbackTrips is how many round trips one loopback sample takes the
// median of.
const loopbackTrips = 200

// calibrationKernel is fixed work that streams memory, computes and
// misses the cache: a SHA-256 of 4 MiB, a sort of 256 Ki random keys and
// a map built from a quarter of them.
func calibrationKernel(data []byte, keys []uint64) {
	sha256.Sum256(data)
	k := slices.Clone(keys)
	slices.Sort(k)
	m := make(map[uint64]int, len(k)/4)
	for i, v := range k[:len(k)/4] {
		m[v] = i
	}
}

// kernelTimer holds the kernel's fixed inputs.
type kernelTimer struct {
	data []byte
	keys []uint64
}

func newKernelTimer() *kernelTimer {
	r := rand.New(rand.NewPCG(1, 2))
	k := &kernelTimer{data: make([]byte, 4<<20), keys: make([]uint64, 1<<18)}
	for i := range k.data {
		k.data[i] = byte(r.Uint32())
	}
	for i := range k.keys {
		k.keys[i] = r.Uint64()
	}
	return k
}

// sample is the quicker of two timed runs of the kernel.
func (k *kernelTimer) sample() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		start := time.Now()
		calibrationKernel(k.data, k.keys)
		best = min(best, time.Since(start))
	}
	return best
}

// loopbackTimer times GET round trips to a minimal net/http server on a
// loopback listener, over one kept-alive connection.
type loopbackTimer struct {
	srv    *http.Server
	url    string
	client *http.Client
}

func newLoopbackTimer() (*loopbackTimer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := []byte(`{"status":"ok"}`)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	go srv.Serve(ln)
	return &loopbackTimer{srv: srv, url: "http://" + ln.Addr().String() + "/",
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}}, nil
}

// sample is the median of loopbackTrips round trips.
func (t *loopbackTimer) sample() (time.Duration, error) {
	ds := make([]time.Duration, loopbackTrips)
	for i := range ds {
		start := time.Now()
		resp, err := t.client.Get(t.url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return medianDur(ds), nil
}

func (t *loopbackTimer) close() {
	t.client.CloseIdleConnections()
	t.srv.Close()
}

// calibrate adds n samples of each kernel to the run's. A verify workload
// calls it before each measured slice; runWorkload calls it before set-up
// and after the run.
func (r *run) calibrate(n int) error {
	if r.kernel == nil {
		r.kernel = newKernelTimer()
	}
	if r.loopback == nil {
		t, err := newLoopbackTimer()
		if err != nil {
			return err
		}
		r.loopback = t
	}
	for i := 0; i < n; i++ {
		r.cals = append(r.cals, r.kernel.sample())
		d, err := r.loopback.sample()
		if err != nil {
			return fmt.Errorf("loopback calibration: %w", err)
		}
		r.loops = append(r.loops, d)
	}
	return nil
}

// dropCalibration stops the loopback server and releases the kernel's
// inputs, which are the benchmark's memory, not the program's.
func (r *run) dropCalibration() {
	if r.loopback != nil {
		r.loopback.close()
	}
	r.kernel, r.loopback = nil, nil
}

// scales returns the factors setup_s and the serving times are multiplied
// by: the reference over the measured kernel times.
func (r *run) scales() (setup, serving float64) {
	compute := float64(medianDur(r.cals)) / float64(calibrationRef)
	loop := float64(medianDur(r.loops)) / float64(loopbackRef)
	return 1 / compute, 1 / math.Sqrt(compute*loop)
}
