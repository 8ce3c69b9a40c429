package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The host the benchmark runs on does not run at one speed: a fixed hash
// loop on the 2-vCPU reference VM takes anywhere from 1x to 2x its best
// time from one second to the next, as neighbours come and go. A figure
// averaged over a whole run then mostly measures how much of the run the
// host was slow. The headline figures therefore come from the quiet
// rounds of a phase: the phase is cut into rounds of consecutive requests,
// the rounds are ranked by the quantile being measured, and the quietest
// quarter is pooled to compute it. The host only ever adds time, so the
// quiet rounds are the ones that measure the program. The whole phase's
// figures are printed beside them, and cpu_ms_per_op, which must carry
// the collector's cost wherever it falls, is taken over the whole phase,
// as is the verify workloads' job_s, whose quiet rounds spread further
// between runs than its whole-run median (see README.md).
// roundLength is a round's share of a phase: of the schedule in an open
// loop, of the elapsed time (as a request count) in a closed one.
const roundLength = 500 * time.Millisecond

// quietShare is how many of n rounds (or repeated measurements) are
// pooled: a quarter, at least one.
func quietShare(n int) int { return max(1, (n+3)/4) }

// quietRounds is the pooled quiet quarter of a phase: the sorted
// latencies of the samples of the classes in the chosen rounds.
type quietRounds struct {
	lat          []time.Duration
	chosen, of   int
	roundSamples int
}

// quiet pools the quietest quarter of the phase's rounds, ranked by the
// q-quantile of the latencies of their samples of the classes (all when
// empty).
func (p *phase) quiet(q float64, classes ...string) quietRounds {
	type round struct {
		lat  []time.Duration
		rank time.Duration
	}
	var rounds []round
	for lo := 0; lo < len(p.samples); lo += p.round {
		var rd round
		for i := lo; i < min(lo+p.round, len(p.samples)); i++ {
			if s := &p.samples[i]; len(classes) == 0 || contains(classes, s.op.class) {
				rd.lat = append(rd.lat, s.latency())
			}
		}
		if len(rd.lat) == 0 {
			continue
		}
		rd.lat = sortedDurations(rd.lat)
		rd.rank = quantile(rd.lat, q)
		rounds = append(rounds, rd)
	}
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].rank < rounds[j].rank })
	out := quietRounds{of: len(rounds), chosen: quietShare(len(rounds)), roundSamples: p.round}
	var lat []time.Duration
	for _, rd := range rounds[:out.chosen] {
		lat = append(lat, rd.lat...)
	}
	out.lat = sortedDurations(lat)
	return out
}

func (q quietRounds) String() string {
	return fmt.Sprintf("quietest %d of %d rounds of %d requests", q.chosen, q.of, q.roundSamples)
}

// quietDur is the median of the quietest quarter of repeated
// measurements of one thing.
func quietDur(ds []time.Duration) time.Duration {
	s := sortedDurations(ds)
	return medianDur(s[:min(len(s), quietShare(len(s)))])
}

// setLatency records latency_p50_ms from the quiet rounds of an open-loop
// phase and cpu_ms_per_op over the whole phase, and prints the quiet p90
// and p99. The tails are not scored: on the reference host, vCPU wake-up
// stalls of one to twenty milliseconds land in some runs' quiet rounds and
// not in others', so even a p90 spread by more than 50% between runs of
// the same code.
func (r *run) setLatency(p *phase, classes ...string) {
	all := p.latencies(classes...)
	q50 := p.quiet(0.5, classes...)
	r.set("latency_p50_ms", ms(quantile(q50.lat, 0.5)), "n=%d at %.0f req/s, %s; whole phase n=%d p50 %.4f ms",
		len(q50.lat), p.rate, q50, len(all), ms(quantile(all, 0.5)))
	for _, q := range []float64{0.9, 0.99} {
		qr := p.quiet(q, classes...)
		i := int(math.Ceil(q*float64(len(qr.lat)))) - 1
		if q > 0.95 {
			// The highest percentile with ten samples beyond it.
			_, _, beyond := tail(qr.lat)
			i = len(qr.lat) - 1 - beyond
		}
		wi := int(math.Ceil(q*float64(len(all)))) - 1
		r.extraf("%-16s %12.4f ms     (p%.2f of n=%d quiet-round requests, %d beyond; whole phase p%.2f = %.4f ms of n=%d)",
			fmt.Sprintf("latency_p%.0f_ms", 100*q), ms(qr.lat[i]), 100*float64(i+1)/float64(len(qr.lat)), len(qr.lat), len(qr.lat)-1-i,
			100*q, ms(all[max(0, wi)]), len(all))
	}
	r.set("cpu_ms_per_op", ms(p.cpu)/float64(len(p.samples)), "%d requests in %s, %d GC cycles",
		len(p.samples), p.elapsed.Round(time.Millisecond), p.gcCycles)
}
