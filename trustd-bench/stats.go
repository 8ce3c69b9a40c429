package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
	"time"
)

// failed marks a sample that never completed: a failure counts as missing
// every latency limit, so it sorts above any measured duration.
const failed = time.Duration(math.MaxInt64)

// sortedDurations returns a sorted copy.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tail is the p99 when at least ten samples lie beyond it, otherwise the
// highest rank that still has ten beyond it (or the maximum when there are
// ten samples or fewer). It returns the value, its percentile and the
// number of samples beyond it, so a report can say what it measured.
func tail(sorted []time.Duration) (v time.Duration, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-i < 10 {
		i = max(0, n-11)
	}
	return sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of unsorted samples (the mean of the middle two
// for an even count).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedDurations(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
