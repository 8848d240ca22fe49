package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dayu/internal/obs"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

const (
	queryBase = 300 // tasks in the watched directory at start
	queryLand = 2   // new final traces landing per second
)

// queryEndpoints is the dashboard's request cycle.
var queryEndpoints = []struct{ name, path string }{
	{"ftg", "/v1/ftg"},
	{"sdg_dot", "/v1/sdg?format=dot"},
	{"live_sdg_window", "/v1/live/sdg?window=1ms"},
	{"diagnose", "/v1/diagnose"},
	{"plan", "/v1/plan"},
	{"ftg_html", "/v1/ftg?format=html"},
}

// response is one dashboard request as the client saw it.
type response struct {
	start, end time.Time
	snapshot   string
}

// runQuery is the dashboard workload: one closed-loop reader cycling
// the read endpoints while final traces land in the watched directory.
func runQuery(env *runEnv) (*outcome, error) {
	o := &outcome{latName: "query_ms", layer: map[string]float64{}, counts: map[string]int64{}}
	landed := queryLand * int(env.duration.Seconds())
	all, manifest := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: queryBase + landed})
	perm := env.rng.Perm(len(all))
	var pre, land []*trace.TaskTrace
	for i, p := range perm {
		if i < queryBase {
			pre = append(pre, all[p])
		} else {
			land = append(land, all[p])
		}
	}

	// Set-up, timed setupReps times: start the server over the directory and
	// make one pass over the endpoints, so caches are warm before the
	// measurement. The last set-up is the one measured.
	dir := filepath.Join(env.dir, "traces")
	if err := writeSynthetic(env, dir, pre, manifest); err != nil {
		return nil, err
	}
	hc := httpClient()
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if svc != nil {
			svc.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if svc, err = startService(dir, ""); err != nil {
			return nil, err
		}
		for _, ep := range queryEndpoints {
			if _, _, err := get(hc, svc.http.URL+ep.path); err != nil {
				return nil, err
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	env.resetPeak()

	// The lander writes final traces as `dayu run` does (atomic rename)
	// on a fixed schedule.
	before := svc.reg.Snapshot()
	start := time.Now()
	landedAt := make([]time.Time, len(land))
	var lateMax float64
	var landErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, t := range land {
			due := start.Add((time.Duration(i)*time.Second + time.Second/2) / queryLand)
			sleepUntil(due)
			if late := ms(time.Since(due).Nanoseconds()); late > lateMax {
				lateMax = late
			}
			if _, err := t.SaveFormat(dir, trace.FormatJSON); err != nil {
				landErr = err
				return
			}
			landedAt[i] = time.Now()
		}
	}()

	perEndpoint := map[string][]float64{}
	var resps []response
	deadline := start.Add(env.duration)
	for op := int64(0); time.Now().Before(deadline); op++ {
		ep := queryEndpoints[op%int64(len(queryEndpoints))]
		sp := env.profiledOp(op / int64(len(queryEndpoints)))
		t0 := time.Now()
		var snap string
		var err error
		sp.timed("serve."+ep.name, op, spanRef{}, func() { _, snap, err = get(hc, svc.http.URL+ep.path) })
		t1 := time.Now()
		o.attempted++
		if err != nil {
			o.failed++
			o.gate("%s: %v", ep.path, err)
			continue
		}
		elapsed := ms(t1.Sub(t0).Nanoseconds())
		o.lat = append(o.lat, elapsed)
		o.record(env, sp, elapsed)
		perEndpoint[ep.name] = append(perEndpoint[ep.name], elapsed)
		resps = append(resps, response{t0, t1, snap})
	}
	wg.Wait()
	env.notePeak()
	if landErr != nil {
		return nil, landErr
	}
	period := time.Second / queryLand
	if time.Duration(lateMax*float64(time.Millisecond)) > period {
		o.gate("unsustainable: the lander ran %.1f ms late, more than its period (%v)", lateMax, period)
	}

	var visible dist
	// visible_ms is how long a reader that asks right after a landing
	// waits to see it: from the start of the first request that started
	// after the landing to the end of the first request that saw a
	// snapshot other than the one the last request before the landing
	// saw. Timing from the landing itself would add whatever part of an
	// unrelated request was still in flight.
	for _, at := range landedAt {
		if at.IsZero() || at.After(deadline) {
			continue
		}
		prev := ""
		var asked time.Time
		for _, r := range resps {
			if r.end.Before(at) {
				prev = r.snapshot
				continue
			}
			if !r.start.After(at) {
				continue
			}
			if asked.IsZero() {
				asked = r.start
			}
			if r.snapshot != prev {
				visible = append(visible, ms(r.end.Sub(asked).Nanoseconds()))
				break
			}
		}
	}

	// Convergence: the final bodies equal the batch CLI over the
	// directory.
	ftg, sdg, diag, err := batchBodies(dir)
	if err != nil {
		return nil, err
	}
	for _, g := range []struct {
		path string
		want []byte
	}{{"/v1/ftg", ftg}, {"/v1/sdg", sdg}, {"/v1/diagnose", diag}} {
		body, _, err := get(hc, svc.http.URL+g.path)
		if err != nil {
			o.gate("%s: %v", g.path, err)
		} else if !bytes.Equal(body, g.want) {
			o.gate("%s differs from the batch CLI over the final directory", g.path)
		}
	}
	after := svc.reg.Snapshot()

	for _, ep := range queryEndpoints {
		o.layer["query."+ep.name+"_ms"] = median(perEndpoint[ep.name])
	}
	snaps := after.Counters["dayu_serve_ingests_total"] - before.Counters["dayu_serve_ingests_total"]
	parses := after.Counters["dayu_serve_trace_parses_total"] - before.Counters["dayu_serve_trace_parses_total"]
	o.counts["serve.snapshots"] = snaps
	o.counts["serve.trace_parses"] = parses
	o.layer["serve.snapshots"] = float64(snaps)
	o.layer["serve.trace_parses"] = float64(parses)
	o.layer["serve.snapshot_ms"] = histMeanMS(before, after, "dayu_serve_ingest_ns")
	o.layer["serve.snapshot_hit_ratio"] = ratio(before, after, "snapshot")
	o.layer["serve.response_hit_ratio"] = ratio(before, after, "response")
	o.layer["serve.contrib_hit_ratio"] = ratio(before, after, "contribution")
	o.layer["gen.late_ms_max"] = lateMax
	o.layer["query.visible_ms"] = visible.p50()
	o.notes = append(o.notes, "visible_ms (not gated: one sample per landing is too few for a steady tail): "+visible.describe())
	reqNS := obs.Name("dayu_serve_request_ns", "path", "/v1/ftg")
	o.notes = append(o.notes, fmt.Sprintf("lander: %d traces at %d/s, max lateness %.3f ms; reader: %d requests (server-side /v1/ftg mean %.3f ms)",
		len(land), queryLand, lateMax, len(resps), histMeanMS(before, after, reqNS)))
	addSelfTimes(env, o)
	return o, nil
}
