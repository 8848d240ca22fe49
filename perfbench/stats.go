package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// minSamples is how many operations a closed loop measures at least.
const minSamples = 40

// dist is a set of latency samples in milliseconds.
type dist []float64

// pct returns the nearest-rank p-th percentile.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func (d dist) p50() float64 { return d.pct(50) }

// tail returns the highest percentile that has minBeyond samples above
// it, and its value; ok is false when there are too few samples for
// one.
func (d dist) tail() (p, value float64, ok bool) {
	if len(d) <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	rank := len(s) - minBeyond
	return 100 * float64(rank) / float64(len(s)), s[rank-1], true
}

// describe renders "p50 x ms, tail y ms at pP (n=N)" for the report.
func (d dist) describe() string {
	p, v, ok := d.tail()
	if !ok {
		return fmt.Sprintf("p50 %.3f ms, too few samples for a tail (n=%d)", d.p50(), len(d))
	}
	return fmt.Sprintf("p50 %.3f ms, tail %.3f ms at p%.2f (n=%d)", d.p50(), v, p, len(d))
}

// deciles renders the distribution's shape for the report.
func (d dist) deciles(name string) string {
	out := name + ":"
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.5, 99.8, 100} {
		out += fmt.Sprintf(" p%g=%.3f", p, d.pct(p))
	}
	return out
}

// median of a float slice (0 when empty).
func median(v []float64) float64 { return dist(v).pct(50) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sleepUntil returns at t. The runtime's timers can wake a sleeper up
// to a millisecond late, which is most of a loopback request, so the
// last two milliseconds are spent yielding instead of sleeping.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
