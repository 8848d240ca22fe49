// Command perfbench is the repository benchmark. It drives the dayu
// packages through their public functions (and over loopback HTTP
// where the service is involved) on one of four workloads, checks the
// outputs, and prints a report followed by one JSON result line.
//
//	perfbench --workload <mapper|analyze|live|query> --seed <n> \
//	    --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with spans off. With --trace 1 it carries the per-layer metrics:
// every call the benchmark makes into a layer is recorded as a span
// (kept in memory, written under .bench_build/perfbench/spans at the
// end), each layer's self time is reported, and alternate operations
// run with spans off so the span overhead is measured in the same run.
// LEDGER.md maps every layer metric to the end-to-end metric it moves.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times the server workloads set up, and
// loopSetupReps how many times the closed loops do; setup_s is the
// median. Each set-up starts from a collected heap, so none pays for
// the garbage of the one before.
const (
	setupReps     = 21
	loopSetupReps = 5
)

// runEnv is what every workload receives.
type runEnv struct {
	seed     int64
	rng      *rand.Rand
	duration time.Duration
	// spans is nil in plain runs; in profiled runs only the operations
	// for which profiledOp is true record spans.
	spans *spanLog
	dir   string
	// peakRSS is the process's peak resident set during the measured
	// part of the run (MiB), and peakMethod how it was taken.
	peakRSS    float64
	peakMethod string
}

// resetPeak is called when set-up has ended: it returns freed memory
// to the OS and restarts the kernel's peak resident-set counter, so
// that peak_rss_mib covers the workload only. Where the counter cannot
// be reset, the peak includes set-up, and the report says so.
func (e *runEnv) resetPeak() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		e.peakMethod = "VmHWM of /proc/self/status over the whole process life, set-up included (clear_refs: " + err.Error() + ")"
		return
	}
	e.peakMethod = "VmHWM of /proc/self/status, reset by clear_refs after set-up and read before the correctness checks"
}

// notePeak is called when the measured part of the run has ended,
// before the correctness checks, whose own allocations would otherwise
// set the peak.
func (e *runEnv) notePeak() { e.peakRSS = peakRSSMiB() }

// profiledOp reports whether operation i records spans: in a profiled
// run even operations do and odd ones do not (ABAB), so the span
// overhead is the difference between the two halves.
func (e *runEnv) profiledOp(i int64) *spanLog {
	if e.spans == nil || i%2 == 1 {
		return nil
	}
	return e.spans
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// gateErrs are failed correctness or validity gates; any one makes
	// the run incorrect.
	gateErrs []string
	// setup is the duration of each set-up repetition, in seconds.
	setup []float64
	// lat is the gated latency (ms): how long the user waits for the
	// result of an operation. latName is the workload's own name for it.
	lat     dist
	latName string
	// ack is live's push latency (ms), reported but not gated.
	ack dist
	// layer holds the per-layer metrics this workload measures.
	layer map[string]float64
	// counts are exact counters, printed as integers; inexact names
	// the ones that depend on timing and need not repeat.
	counts  map[string]int64
	inexact []string
	// plain and profiled split the operations by span mode in profiled
	// runs.
	plain, profiled dist
	notes           []string
}

// more reports whether a closed loop keeps measuring: until the run's
// length has passed, and beyond it, up to three times that length,
// until there are minSamples operations. A slow machine then yields a
// longer run rather than a run with too few samples for a tail.
func (o *outcome) more(env *runEnv, start time.Time) bool {
	elapsed := time.Since(start)
	return elapsed < env.duration || (len(o.lat) < minSamples && elapsed < 3*env.duration)
}

func (o *outcome) gate(format string, args ...any) {
	o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
}

var workloadRuns = map[string]func(*runEnv) (*outcome, error){
	"mapper":  runMapper,
	"analyze": runAnalyze,
	"live":    runLive,
	"query":   runQuery,
}

func main() {
	name := flag.String("workload", "", "workload: mapper, analyze, live or query")
	seed := flag.Int64("seed", 1, "seed for every input choice")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics with spans")
	flag.Parse()

	run, ok := workloadRuns[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceMode)
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env := &runEnv{
		seed:     *seed,
		rng:      rand.New(rand.NewSource(*seed)),
		duration: time.Duration(*seconds) * time.Second,
		dir:      dir,
	}
	if *traceMode == 1 {
		env.spans = newSpanLog()
	}
	out, err := run(env)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if env.spans != nil {
		spanDir := filepath.Join(base, "spans")
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		err := os.MkdirAll(spanDir, 0o755)
		if err == nil {
			err = env.spans.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", env.spans.count(), path))
	}
	checkCounts(env, *name, out)
	report(os.Stdout, *name, env, out, *traceMode == 1)
}

// report prints the human-readable report, then the JSON result line.
func report(w io.Writer, name string, env *runEnv, o *outcome, profiled bool) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", name, env.seed, env.duration.Seconds(), profiled)
	fmt.Fprintf(bw, "env: GOMAXPROCS=%d nproc=%d go=%s cpu=%q peak_rss=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel(), env.peakMethod)

	failPct := 0.0
	if o.attempted > 0 {
		failPct = 100 * float64(o.failed) / float64(o.attempted)
	}
	if len(o.lat) < minSamples {
		o.gate("too few samples: %s n=%d, the median and tail need %d", o.latName, len(o.lat), minSamples)
	}
	setupS := median(o.setup)
	rss := env.peakRSS
	fmt.Fprintf(bw, "e2e setup_s = %.4f s (median of %d set-ups)\n", setupS, len(o.setup))
	fmt.Fprintf(bw, "dist %s\n", dist(o.setup).deciles("setup_s"))
	fmt.Fprintf(bw, "e2e fail_pct = %.4f %% (%d of %d failed)\n", failPct, o.failed, o.attempted)
	fmt.Fprintf(bw, "e2e peak_rss_mib = %.1f MiB\n", rss)
	latency := func(name string, d dist, gated string) {
		p, tail, _ := d.tail()
		fmt.Fprintf(bw, "e2e %s_p50 = %.4f ms%s, %s_tail = %.4f ms at p%.2f (n=%d, %d beyond), not gated\n",
			name, d.p50(), gated, name, tail, p, len(d), minBeyond)
		fmt.Fprintf(bw, "dist %s\n", d.deciles(name))
	}
	latency(o.latName, o.lat, " (gated as latency_ms_p50)")
	if len(o.ack) > 0 {
		latency("ack_ms", o.ack, ", not gated")
		_, tail, _ := o.ack.tail()
		o.layer["client.ack_ms_p50"] = o.ack.p50()
		o.layer["client.ack_ms_tail"] = tail
	}
	if len(o.profiled) > 0 && len(o.plain) > 0 {
		ov := 100 * (o.profiled.p50() - o.plain.p50()) / o.plain.p50()
		o.layer["span.overhead_pct"] = ov
		fmt.Fprintf(bw, "spans: profiled ops %s; plain ops %s; span overhead %.2f %% of the plain p50\n",
			o.profiled.describe(), o.plain.describe(), ov)
	}
	for _, k := range sortedKeys(o.counts) {
		fmt.Fprintf(bw, "count %s = %d\n", k, o.counts[k])
	}
	for _, k := range sortedKeys(o.layer) {
		fmt.Fprintf(bw, "layer %s = %s\n", k, strconv.FormatFloat(o.layer[k], 'f', -1, 64))
	}
	for _, n := range o.notes {
		fmt.Fprintf(bw, "note: %s\n", n)
	}
	for _, g := range o.gateErrs {
		fmt.Fprintf(bw, "GATE FAILED: %s\n", g)
	}

	correct := len(o.gateErrs) == 0
	failed := o.failed
	if !correct && failed == 0 {
		failed = 1 // a failed gate fails the run and counts as a failure
	}
	attempted := o.attempted
	if attempted < failed {
		attempted = failed
	}
	if attempted == 0 {
		attempted = 1
	}
	metrics := map[string]metric{}
	if profiled {
		for _, m := range layerMetrics {
			metrics[m.name] = metric{Value: o.layer[m.name], Unit: m.unit}
		}
	} else {
		metrics["setup_s"] = metric{setupS, "s"}
		metrics["peak_rss_mib"] = metric{rss, "MiB"}
		metrics["latency_ms_p50"] = metric{o.lat.p50(), "ms"}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	bw.Write(line)
	bw.WriteByte('\n')
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// record files one operation's latency by span mode in profiled runs.
func (o *outcome) record(env *runEnv, sp *spanLog, elapsed float64) {
	if env.spans == nil {
		return
	}
	if sp != nil {
		o.profiled = append(o.profiled, elapsed)
	} else {
		o.plain = append(o.plain, elapsed)
	}
}

// addSelfTimes reports each layer's self time per profiled operation.
func addSelfTimes(env *runEnv, o *outcome) {
	if env.spans == nil || len(o.profiled) == 0 {
		return
	}
	for layer, ns := range env.spans.selfTimes() {
		o.layer["self_ms."+layer] = ms(ns) / float64(len(o.profiled))
	}
}
