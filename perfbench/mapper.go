package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// replicaRun is one execution of a replica, traced or not.
type replicaRun struct {
	wall         time.Duration
	virtual      time.Duration // 0 for the two kernels, which run on real time
	times        tracer.ComponentTimes
	traces       []*trace.TaskTrace
	saveWorkflow func(dir string) error
}

// replica is one of the five mapper replicas.
type replica struct {
	name string
	run  func(traced bool) (*replicaRun, error)
}

func kernelRun(traced bool, fn func(*tracer.Tracer) ([]*trace.TaskTrace, error)) (*replicaRun, error) {
	var tr *tracer.Tracer
	if traced {
		tr = tracer.New(tracer.Config{})
	}
	t0 := time.Now()
	traces, err := fn(tr)
	r := &replicaRun{wall: time.Since(t0), traces: traces}
	if tr != nil {
		r.times = tr.Timing()
	}
	return r, err
}

func workflowRun(traced bool, mk func() (workflow.Spec, func(*workflow.Engine) error)) (*replicaRun, error) {
	cfg := tracer.Config{}
	if !traced {
		cfg = tracer.Config{DisableVOL: true, DisableVFD: true}
	}
	spec, setup := mk()
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}, nil, cfg)
	if err != nil {
		return nil, err
	}
	if err := setup(eng); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := eng.Run(spec)
	if err != nil {
		return nil, err
	}
	r := &replicaRun{wall: time.Since(t0), virtual: res.Total(), times: res.TracerTimes, traces: res.Traces}
	r.saveWorkflow = func(dir string) error { return res.SaveTraces(dir, trace.FormatJSON) }
	return r, nil
}

var replicas = []replica{
	{"corner_case", func(traced bool) (*replicaRun, error) {
		return kernelRun(traced, func(tr *tracer.Tracer) ([]*trace.TaskTrace, error) {
			_, t, err := workloads.RunCornerCase(workloads.CornerCaseConfig{ReadOps: 4000}, tr)
			if t == nil {
				return nil, err
			}
			return []*trace.TaskTrace{t}, err
		})
	}},
	{"h5bench", func(traced bool) (*replicaRun, error) {
		return kernelRun(traced, func(tr *tracer.Tracer) ([]*trace.TaskTrace, error) {
			_, ts, err := workloads.RunH5bench(workloads.H5benchConfig{Procs: 4, BytesPerProc: 8 << 20, IOSize: 256 << 10}, tr)
			return ts, err
		})
	}},
	{"pyflextrkr", func(traced bool) (*replicaRun, error) {
		return workflowRun(traced, func() (workflow.Spec, func(*workflow.Engine) error) {
			return workloads.PyFlextrkr(workloads.PyFlextrkrConfig{})
		})
	}},
	{"ddmd", func(traced bool) (*replicaRun, error) {
		return workflowRun(traced, func() (workflow.Spec, func(*workflow.Engine) error) {
			return workloads.DDMD(workloads.DDMDConfig{})
		})
	}},
	{"arldm", func(traced bool) (*replicaRun, error) {
		return workflowRun(traced, func() (workflow.Spec, func(*workflow.Engine) error) {
			return workloads.ARLDM(workloads.ARLDMConfig{})
		})
	}},
}

// save writes a traced run's traces as the `dayu run` default JSON.
func (r *replicaRun) save(dir string) error {
	if r.saveWorkflow != nil {
		return r.saveWorkflow(dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range r.traces {
		if _, err := t.SaveFormat(dir, trace.FormatJSON); err != nil {
			return err
		}
	}
	return nil
}

// vfdCounts totals the file-level operations and bytes in traces.
func vfdCounts(traces []*trace.TaskTrace) (ops, bytes int64) {
	for _, t := range traces {
		for _, f := range t.Files {
			ops += f.Ops
			bytes += f.BytesRead + f.BytesWritten
		}
	}
	return ops, bytes
}

// fingerprint is what must repeat exactly for one replica.
type fingerprint struct {
	virtual         time.Duration
	vfdOps, vfdByte int64
}

// runMapper is the Data Semantic Mapper workload: a closed loop of
// cycles, each running the five replicas traced and untraced, in an
// order the seed chooses.
func runMapper(env *runEnv) (*outcome, error) {
	o := &outcome{latName: "mapper_cycle_ms", layer: map[string]float64{}, counts: map[string]int64{}}
	saveDir := filepath.Join(env.dir, "traces")

	untraced := map[string][]float64{}
	overhead := map[string][]float64{}
	var parser, tracker, mapper, saveMS, overheadPct []float64
	var savedBytes int64
	ref := map[string]fingerprint{} // by replica and mode

	// cycle runs every replica in both modes; it returns the traced
	// half's wall time, saves included.
	cycle := func(op int64, sp *spanLog, record bool) (time.Duration, error) {
		root := sp.begin("perfbench.mapper", op, spanRef{})
		defer root.end()
		var tracedWall time.Duration
		var times tracer.ComponentTimes
		var sumTraced, sumUntraced, saveWall time.Duration
		for _, i := range env.rng.Perm(len(replicas)) {
			rep := replicas[i]
			order := []bool{true, false}
			if env.rng.Intn(2) == 0 {
				order = []bool{false, true}
			}
			var runs [2]*replicaRun
			for _, traced := range order {
				name := "substrate." + rep.name
				if traced {
					name = "tracer." + rep.name
				}
				var r *replicaRun
				var err error
				// Each run starts from a collected heap, so one run's
				// garbage is neither billed to the next nor added to
				// its peak memory.
				runtime.GC()
				sp.timed(name, op, root, func() { r, err = rep.run(traced) })
				if err != nil {
					return 0, fmt.Errorf("%s (traced %v): %w", rep.name, traced, err)
				}
				k := 0
				if traced {
					k = 1
				}
				runs[k] = r
				ops, byts := vfdCounts(r.traces)
				fp := fingerprint{r.virtual, ops, byts}
				key := fmt.Sprintf("%s traced=%v", rep.name, traced)
				if prev, ok := ref[key]; !ok {
					ref[key] = fp
				} else if prev != fp {
					o.gate("%s: cycle %d gave virtual %v, vfd %d ops %d bytes; first cycle gave %v, %d, %d",
						key, op, fp.virtual, fp.vfdOps, fp.vfdByte, prev.virtual, prev.vfdOps, prev.vfdByte)
				}
			}
			t0 := time.Now()
			var err error
			dir := filepath.Join(saveDir, rep.name)
			sp.timed("trace.save."+rep.name, op, root, func() { err = runs[1].save(dir) })
			if err != nil {
				return 0, fmt.Errorf("save %s: %w", rep.name, err)
			}
			save := time.Since(t0)
			saveWall += save
			tracedWall += runs[1].wall + save
			sumTraced += runs[1].wall
			sumUntraced += runs[0].wall
			t := runs[1].times
			times.InputParser += t.InputParser
			times.AccessTracker += t.AccessTracker
			times.CharacteristicMapper += t.CharacteristicMapper
			if record {
				untraced[rep.name] = append(untraced[rep.name], ms(runs[0].wall.Nanoseconds()))
				overhead[rep.name] = append(overhead[rep.name], ms((runs[1].wall - runs[0].wall).Nanoseconds()))
			}
		}
		if record {
			parser = append(parser, ms(times.InputParser.Nanoseconds()))
			tracker = append(tracker, ms(times.AccessTracker.Nanoseconds()))
			mapper = append(mapper, ms(times.CharacteristicMapper.Nanoseconds()))
			saveMS = append(saveMS, ms(saveWall.Nanoseconds()))
			overheadPct = append(overheadPct, 100*float64(sumTraced-sumUntraced)/float64(sumUntraced))
			savedBytes = 0
			for _, rep := range replicas {
				n, err := dirBytes(filepath.Join(saveDir, rep.name))
				if err != nil {
					return 0, err
				}
				savedBytes += n
			}
		}
		return tracedWall, nil
	}

	// Set-up: warm-up cycles that also fix each replica's reference
	// fingerprint.
	for rep := 0; rep < loopSetupReps; rep++ {
		t0 := time.Now()
		if _, err := cycle(-1, nil, false); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	env.resetPeak()
	start := time.Now()
	for op := int64(0); o.more(env, start); op++ {
		sp := env.profiledOp(op)
		d, err := cycle(op, sp, true)
		o.attempted++
		if err != nil {
			o.failed++
			o.gate("cycle %d: %v", op, err)
			continue
		}
		o.lat = append(o.lat, ms(d.Nanoseconds()))
		o.record(env, sp, ms(d.Nanoseconds()))
	}
	env.notePeak()

	for _, rep := range replicas {
		o.layer["substrate."+rep.name+"_ms"] = median(untraced[rep.name])
		o.layer["tracer."+rep.name+"_overhead_ms"] = median(overhead[rep.name])
		fp := ref[rep.name+" traced=true"]
		o.counts["vfd."+rep.name+".ops"] = fp.vfdOps
		o.counts["vfd."+rep.name+".bytes"] = fp.vfdByte
		if fp.virtual > 0 {
			o.counts["virtual_ns."+rep.name] = fp.virtual.Nanoseconds()
		}
	}
	o.layer["tracer.overhead_pct"] = median(overheadPct)
	o.layer["tracer.parser_ms"] = median(parser)
	o.layer["tracer.tracker_ms"] = median(tracker)
	o.layer["tracer.mapper_ms"] = median(mapper)
	o.layer["trace.save_ms"] = median(saveMS)
	o.layer["trace.saved_bytes"] = float64(savedBytes)
	addSelfTimes(env, o)
	return o, nil
}
