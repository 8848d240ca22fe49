package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

// analyzeTasks is the size of the offline trace set.
const analyzeTasks = 600

// renderNames orders the graph outputs of one analyze operation.
var renderNames = []string{
	"ftg.dot", "ftg.json", "ftg.svg", "ftg.html",
	"sdg.dot", "sdg.json", "sdg.svg", "sdg.html",
}

// analyzeOut is everything one analyze operation produced.
type analyzeOut struct {
	outputs  [][]byte // renderNames order, then the diagnose JSON
	ftg, sdg *graph.Graph
	findings int
	ms       map[string]float64
}

// analyzeOnce is what `dayu analyze` (FTG, and -sdg -regions) plus
// `dayu diagnose -json` compute over a trace directory. parallelism 0
// is the CLI default.
func analyzeOnce(dir string, parallelism int, sp *spanLog, op int64) (*analyzeOut, error) {
	out := &analyzeOut{ms: map[string]float64{}}
	root := sp.begin("perfbench.analyze", op, spanRef{})
	defer root.end()
	step := func(name string, fn func()) {
		t0 := time.Now()
		sp.timed(name, op, root, fn)
		out.ms[name] += ms(time.Since(t0).Nanoseconds())
	}
	var traces []*trace.TaskTrace
	var m *trace.Manifest
	var err error
	step("trace.load", func() {
		if traces, err = trace.LoadDir(dir); err == nil {
			m, err = trace.LoadManifest(dir)
		}
	})
	if err != nil {
		return nil, err
	}
	step("analyzer.ftg", func() {
		out.ftg = analyzer.BuildFTGOpts(traces, m, analyzer.Options{Parallelism: parallelism})
	})
	step("analyzer.sdg", func() {
		out.sdg = analyzer.BuildSDG(traces, m, analyzer.Options{
			PageSize: 4096, IncludeRegions: true, IncludeFileMetadata: true, Parallelism: parallelism,
		})
	})
	var diag []byte
	step("diagnose.analyze", func() {
		f := diagnose.Analyze(traces, m, diagnose.Thresholds{})
		out.findings = len(f)
		diag, err = diagnose.EncodeJSON(f)
	})
	if err != nil {
		return nil, err
	}
	for _, name := range renderNames {
		g := out.ftg
		if strings.HasPrefix(name, "sdg") {
			g = out.sdg
		}
		var body []byte
		step("graph.render."+name, func() { body, err = render(g, filepath.Ext(name)[1:]) })
		if err != nil {
			return nil, err
		}
		out.outputs = append(out.outputs, body)
	}
	out.outputs = append(out.outputs, diag)
	return out, nil
}

// render is the CLI's encoding of one graph output.
func render(g *graph.Graph, format string) ([]byte, error) {
	switch format {
	case "dot":
		return []byte(g.DOT()), nil
	case "svg":
		return []byte(g.SVG()), nil
	case "html":
		return []byte(g.HTML()), nil
	}
	return json.MarshalIndent(g, "", " ")
}

// writeSynthetic saves traces as the `dayu run` default JSON, in an
// order the seed chooses, plus the manifest.
func writeSynthetic(env *runEnv, dir string, traces []*trace.TaskTrace, m *trace.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, i := range env.rng.Perm(len(traces)) {
		if _, err := traces[i].SaveFormat(dir, trace.FormatJSON); err != nil {
			return err
		}
	}
	return trace.SaveManifest(dir, m)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// runAnalyze is the offline analysis workload: a closed loop of
// analyze operations over a directory of analyzeTasks synthetic traces.
func runAnalyze(env *runEnv) (*outcome, error) {
	o := &outcome{latName: "analyze_ms", layer: map[string]float64{}, counts: map[string]int64{}}
	// Set-up: write the directory and build the Parallelism=1
	// reference every operation is checked against.
	dir := filepath.Join(env.dir, "traces")
	var ref *analyzeOut
	for rep := 0; rep < loopSetupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		traces, m := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: analyzeTasks})
		if err := writeSynthetic(env, dir, traces, m); err != nil {
			return nil, err
		}
		var err error
		if ref, err = analyzeOnce(dir, 1, nil, -1); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	loaded, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{
		"analyzer.ftg_nodes": int64(ref.ftg.NumNodes()), "analyzer.ftg_edges": int64(ref.ftg.NumEdges()),
		"analyzer.sdg_nodes": int64(ref.sdg.NumNodes()), "analyzer.sdg_edges": int64(ref.sdg.NumEdges()),
		"diagnose.findings": int64(ref.findings),
	}
	for k, v := range counts {
		o.counts[k] = v
		o.layer[k] = float64(v)
	}
	o.counts["trace.loaded_bytes"] = loaded
	o.layer["trace.loaded_bytes"] = float64(loaded)
	ref.ftg, ref.sdg = nil, nil
	env.resetPeak()

	phase := map[string][]float64{}
	var alloc []float64
	var mem runtime.MemStats
	start := time.Now()
	for op := int64(0); o.more(env, start); op++ {
		// Each operation starts from a collected heap, so one
		// operation's garbage is not billed to the next.
		runtime.GC()
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		sp := env.profiledOp(op)
		t0 := time.Now()
		got, err := analyzeOnce(dir, 0, sp, op)
		elapsed := ms(time.Since(t0).Nanoseconds())
		o.attempted++
		if err != nil {
			o.failed++
			o.gate("op %d: %v", op, err)
			continue
		}
		runtime.ReadMemStats(&mem)
		alloc = append(alloc, float64(mem.TotalAlloc-before)/(1<<20))
		o.lat = append(o.lat, elapsed)
		o.record(env, sp, elapsed)
		for k, v := range got.ms {
			phase[k] = append(phase[k], v)
		}
		for i := range got.outputs {
			if !bytes.Equal(got.outputs[i], ref.outputs[i]) {
				o.failed++
				name := "diagnose.json"
				if i < len(renderNames) {
					name = renderNames[i]
				}
				o.gate("op %d: %s differs from the Parallelism=1 reference", op, name)
				break
			}
		}
	}
	env.notePeak()
	o.layer["trace.load_ms"] = median(phase["trace.load"])
	o.layer["analyzer.ftg_ms"] = median(phase["analyzer.ftg"])
	o.layer["analyzer.sdg_ms"] = median(phase["analyzer.sdg"])
	o.layer["diagnose.ms"] = median(phase["diagnose.analyze"])
	for _, name := range renderNames {
		o.layer["graph.render_ms."+name] = median(phase["graph.render."+name])
	}
	o.layer["alloc_mib"] = median(alloc)
	addSelfTimes(env, o)
	return o, nil
}
