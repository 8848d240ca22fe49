//go:build benchgate

// Wall-clock verdicts. They depend on the host, so tier-1 leaves them
// out; run them with
//
//	go test -tags benchgate -run 'TestAnalyzerSpeedupGate|TestCodecEncodeSpeedupGate' ./internal/workloads/

package workloads

import (
	"runtime"
	"testing"
	"time"

	"dayu/internal/trace"
)

// gateReps is how many samples each side of a wall-clock gate takes;
// the fastest one counts.
const gateReps = 3

// fastestPair times a and b gateReps times each and returns each one's
// fastest run. One untimed run of each warms caches and the heap. The
// timed samples alternate, swapping which goes first every round, and
// each starts from a fresh GC, so a slow stretch of the host lands on
// both sides rather than on one block of samples.
func fastestPair(a, b func()) (bestA, bestB time.Duration) {
	a()
	b()
	sample := func(fn func(), best *time.Duration) {
		runtime.GC()
		t0 := time.Now()
		fn()
		if d := time.Since(t0); *best == 0 || d < *best {
			*best = d
		}
	}
	for r := 0; r < gateReps; r++ {
		if r%2 == 0 {
			sample(a, &bestA)
			sample(b, &bestB)
		} else {
			sample(b, &bestB)
			sample(a, &bestA)
		}
	}
	return bestA, bestB
}

// TestAnalyzerSpeedupGate: the parallel FTG+SDG build must beat the
// serial one by 1.5x at parallelism >= 4 and by 1.0x at 2-3. A host
// that cannot run in parallel skips the gate rather than passing it.
func TestAnalyzerSpeedupGate(t *testing.T) {
	cores, par := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if cores < 2 || par < 2 {
		t.Skipf("cores=%d parallelism=%d: no parallel speedup to measure", cores, par)
	}
	threshold := 1.0
	if par >= 4 {
		threshold = 1.5
	}
	traces, m := GenerateSyntheticTraces(gateTraceConfig)
	serial, parallel := fastestPair(
		func() { buildGateGraphs(traces, m, 1) },
		func() { buildGateGraphs(traces, m, par) },
	)
	speedup := float64(serial) / float64(parallel)
	t.Logf("cores=%d parallelism=%d serial %s parallel %s speedup %.2fx", cores, par, serial, parallel, speedup)
	if speedup <= threshold {
		t.Errorf("parallel analyzer speedup %.2fx at parallelism %d; want > %.1fx", speedup, par, threshold)
	}
}

// TestCodecEncodeSpeedupGate: encoding the trace set as dtb must be at
// least as fast as encoding it as JSON. The optimized format being
// slower to write than the baseline is a performance bug, not a
// tradeoff.
func TestCodecEncodeSpeedupGate(t *testing.T) {
	traces, _ := GenerateSyntheticTraces(gateTraceConfig)
	jsonNS, binNS := fastestPair(
		func() { encodeAll(t, traces, trace.FormatJSON) },
		func() { encodeAll(t, traces, trace.FormatBinary) },
	)
	speedup := float64(jsonNS) / float64(binNS)
	t.Logf("encode json %s dtb %s speedup %.2fx", jsonNS, binNS, speedup)
	if speedup < 1.0 {
		t.Errorf("dtb encode %.2fx JSON speed; want >= 1.0x", speedup)
	}
}
