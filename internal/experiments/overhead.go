package experiments

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dayu/internal/tracer"
	"dayu/internal/units"
	"dayu/internal/workloads"
)

// The Figure 9/10 overhead experiments measure the real Data Semantic
// Mapper. Scales are reduced from the paper's testbed (80 GB files
// become tens of MiB) because the substrate is in-memory; the reported
// shapes - overhead decreasing with file size and process count,
// worst-case overhead growing with object-access frequency, VOL storage
// flat vs VFD storage linear - are the reproduction targets.

// sampleTarget and minRuns size a round: each variant runs n times per
// round, where n is the smallest count of at least minRuns whose
// untraced runs span sampleTarget.
const (
	sampleTarget = 10 * time.Millisecond
	minRuns      = 3
)

// fastestInterleaved times every variant in reps rounds and returns each
// one's fastest run. Within a round the variants take turns run by run,
// rotating which goes first, so a slow stretch of the host lands on all
// of them instead of on one variant's block of runs. n is calibrated on
// variants[0], the untraced run.
func fastestInterleaved(reps int, variants ...func() (time.Duration, error)) ([]time.Duration, error) {
	n := 0
	for span := time.Duration(0); n < minRuns || span < sampleTarget; n++ {
		d, err := timeRun(variants[0])
		if err != nil {
			return nil, err
		}
		span += d
	}
	best := make([]time.Duration, len(variants))
	for r := 0; r < reps; r++ {
		for k := 0; k < n; k++ {
			for i := range variants {
				v := (k + i) % len(variants)
				d, err := timeRun(variants[v])
				if err != nil {
					return nil, err
				}
				if best[v] == 0 || d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return best, nil
}

// timeRun runs one kernel on a freshly collected heap with the collector
// held off until it returns. Otherwise whether a run triggers a
// collection depends on the garbage earlier runs left behind, and on
// these in-memory kernels a collection costs as much as the kernel: it
// made identical runs differ by 2-3x.
func timeRun(run func() (time.Duration, error)) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return run()
}

// overheadPercent computes the tracer overhead of traced vs untraced,
// clamped at zero (timing noise can make tiny traced runs faster).
func overheadPercent(untraced, traced time.Duration) float64 {
	if untraced <= 0 || traced <= untraced {
		return 0
	}
	return 100 * float64(traced-untraced) / float64(untraced)
}

// mapperOverheads times run untraced, with VFD-only and with VOL-only
// tracing, and returns the two overheads. run gets a nil tracer for the
// untraced baseline.
func mapperOverheads(reps int, vfdCfg, volCfg tracer.Config, run func(*tracer.Tracer) (time.Duration, error)) (vfdPct, volPct float64, err error) {
	t, err := fastestInterleaved(reps,
		func() (time.Duration, error) { return run(nil) },
		func() (time.Duration, error) { return run(tracer.New(vfdCfg)) },
		func() (time.Duration, error) { return run(tracer.New(volCfg)) },
	)
	if err != nil {
		return 0, 0, err
	}
	return overheadPercent(t[0], t[1]), overheadPercent(t[0], t[2]), nil
}

// h5benchOverheads measures VFD-only and VOL-only overhead for a config.
func h5benchOverheads(cfg workloads.H5benchConfig, reps int) (vfdPct, volPct float64, err error) {
	return mapperOverheads(reps, tracer.Config{DisableVOL: true}, tracer.Config{DisableVFD: true},
		func(tr *tracer.Tracer) (time.Duration, error) {
			d, _, err := workloads.RunH5bench(cfg, tr)
			return d, err
		})
}

// Fig9a: h5bench overhead vs total file size.
func Fig9a(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	sizes := []int64{8 << 20, 16 << 20, 32 << 20, 64 << 20}
	if opts.Quick {
		sizes = []int64{1 << 20, 2 << 20, 4 << 20}
	}
	t := &Table{ID: "fig9a", Title: "Data Semantic Mapper overhead vs file size (h5bench)",
		Header: []string{"file size", "VFD overhead %", "VOL overhead %"}}
	var first, last float64
	for i, size := range sizes {
		vfdPct, volPct, err := h5benchOverheads(workloads.H5benchConfig{
			Procs: 1, BytesPerProc: size, IOSize: 256 << 10,
		}, opts.Reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(units.Bytes(size), fmt.Sprintf("%.3f", vfdPct), fmt.Sprintf("%.3f", volPct))
		if i == 0 {
			first = vfdPct + volPct
		}
		last = vfdPct + volPct
	}
	t.AddNote("paper: overhead stays below 0.23%% and decreases with file size (fixed per-object cost amortized over larger transfers)")
	if last <= first {
		t.AddNote("reproduced: overhead decreases (or stays flat) as file size grows")
	} else {
		t.AddNote("WARNING: overhead did not decrease with file size this run (wall-clock noise)")
	}
	return t, nil
}

// Fig9b: h5bench overhead vs process count at fixed volume per process.
func Fig9b(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	procs := []int{1, 2, 4, 8}
	per := int64(4 << 20)
	if opts.Quick {
		procs = []int{1, 2, 4}
		per = 1 << 20
	}
	t := &Table{ID: "fig9b", Title: "Data Semantic Mapper overhead vs process count (h5bench)",
		Header: []string{"processes", "VFD overhead %", "VOL overhead %"}}
	for _, p := range procs {
		vfdPct, volPct, err := h5benchOverheads(workloads.H5benchConfig{
			Procs: p, BytesPerProc: per, IOSize: 256 << 10,
		}, opts.Reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.3f", vfdPct), fmt.Sprintf("%.3f", volPct))
	}
	t.AddNote("paper: overhead below 0.16%% and decreasing with process count (per-process profiler state, fixed 1 GB/process)")
	return t, nil
}

// Fig9c: corner-case overhead vs dataset read-operation count.
func Fig9c(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ops := []int{1000, 2000, 4000, 8000}
	if opts.Quick {
		ops = []int{500, 1000, 2000}
	}
	t := &Table{ID: "fig9c", Title: "Worst-case overhead vs dataset I/O count (200 datasets, small file)",
		Header: []string{"dataset I/O ops", "VFD overhead %", "VOL overhead %"}}
	for _, n := range ops {
		cfg := workloads.CornerCaseConfig{ReadOps: n}
		vfdPct, volPct, err := mapperOverheads(opts.Reps,
			tracer.Config{DisableVOL: true, IOTrace: true}, tracer.Config{DisableVFD: true},
			func(tr *tracer.Tracer) (time.Duration, error) {
				d, _, err := workloads.RunCornerCase(cfg, tr)
				return d, err
			})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.2f", vfdPct), fmt.Sprintf("%.2f", volPct))
	}
	t.AddNote("paper: worst-case runtime overhead grows with I/O activity within a file's open/close period, reaching ~4%% (2.97%% VFD + 1.0%% VOL)")
	return t, nil
}

// Fig9d: trace storage overhead vs program data volume.
func Fig9d(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ops := []int{1000, 2000, 4000, 8000}
	if opts.Quick {
		ops = []int{500, 1000, 2000}
	}
	t := &Table{ID: "fig9d", Title: "Trace storage overhead vs I/O operations",
		Header: []string{"I/O ops", "VFD trace", "VFD storage %", "VOL trace", "VOL storage %"}}
	var volSizes []int64
	var vfdSizes []int64
	for _, n := range ops {
		cfg := workloads.CornerCaseConfig{ReadOps: n, DatasetBytes: 128 << 10}
		programBytes := int64(200) * (128 << 10)
		_, vfdTrace, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{DisableVOL: true, IOTrace: true}))
		if err != nil {
			return nil, err
		}
		vfdSize, err := vfdTrace.EncodedSize()
		if err != nil {
			return nil, err
		}
		_, volTrace, err := workloads.RunCornerCase(cfg, tracer.New(tracer.Config{DisableVFD: true}))
		if err != nil {
			return nil, err
		}
		volSize, err := volTrace.EncodedSize()
		if err != nil {
			return nil, err
		}
		vfdSizes = append(vfdSizes, vfdSize)
		volSizes = append(volSizes, volSize)
		t.AddRow(fmt.Sprint(n),
			units.Bytes(vfdSize), units.Percent(float64(vfdSize), float64(programBytes)),
			units.Bytes(volSize), units.Percent(float64(volSize), float64(programBytes)))
	}
	// Shape checks: VOL flat, VFD linear in ops.
	volFlat := volSizes[len(volSizes)-1] < volSizes[0]*2
	vfdGrows := vfdSizes[len(vfdSizes)-1] > vfdSizes[0]*2
	if volFlat && vfdGrows {
		t.AddNote("reproduced: VOL trace storage is constant in op count; VFD time-sensitive trace grows linearly (turn off I/O tracing for constant storage)")
	} else {
		t.AddNote("WARNING: storage shape unexpected (VOL flat=%v, VFD linear=%v)", volFlat, vfdGrows)
	}
	t.AddNote("paper: VOL storage ~0.2%%, VFD linear up to ~0.35%% of the 200 MB program data (here scaled to a 25 MiB file)")
	return t, nil
}

// componentTable renders a ComponentTimes breakdown.
func componentTable(id, title string, ct tracer.ComponentTimes, appTime time.Duration) *Table {
	t := &Table{ID: id, Title: title,
		Header: []string{"component", "time", "share"}}
	p, a, m := ct.Fractions()
	t.AddRow("Input_Parser", units.Duration(ct.InputParser), units.Percent(p, 1))
	t.AddRow("Access_Tracker", units.Duration(ct.AccessTracker), units.Percent(a, 1))
	t.AddRow("Characteristic_Mapper", units.Duration(ct.CharacteristicMapper), units.Percent(m, 1))
	t.AddRow("Total", units.Duration(ct.Total()), "100%")
	if appTime > 0 {
		t.AddNote("tracer total is %s of the application's %s run (%s)",
			units.Percent(float64(ct.Total()), float64(appTime)),
			units.Duration(appTime),
			units.Duration(ct.Total()))
	}
	return t
}

// Fig10a: component breakdown under h5bench (bulk I/O).
func Fig10a(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cfg := workloads.H5benchConfig{Procs: 16, BytesPerProc: 8 << 20, IOSize: 512 << 10}
	if opts.Quick {
		cfg = workloads.H5benchConfig{Procs: 4, BytesPerProc: 2 << 20, IOSize: 256 << 10}
	}
	cfgPath, err := writeTempConfig()
	if err != nil {
		return nil, err
	}
	tr, err := tracer.NewFromFile(cfgPath)
	if err != nil {
		return nil, err
	}
	d, _, err := workloads.RunH5bench(cfg, tr)
	if err != nil {
		return nil, err
	}
	t := componentTable("fig10a", "DaYu execution breakdown: h5bench (bulk parallel I/O)", tr.Timing(), d)
	t.AddNote("paper: h5bench shows minimal total overhead (0.008%% of execution), dominated by per-op mapper/tracker work")
	return t, nil
}

// Fig10b: component breakdown under the corner-case benchmark.
func Fig10b(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cfg := workloads.CornerCaseConfig{ReadOps: 8000}
	if opts.Quick {
		cfg = workloads.CornerCaseConfig{ReadOps: 2000}
	}
	cfgPath, err := writeTempConfig()
	if err != nil {
		return nil, err
	}
	tr, err := tracer.NewFromFile(cfgPath)
	if err != nil {
		return nil, err
	}
	d, _, err := workloads.RunCornerCase(cfg, tr)
	if err != nil {
		return nil, err
	}
	t := componentTable("fig10b", "DaYu execution breakdown: corner-case (frequent object access)", tr.Timing(), d)
	t.AddNote("paper: the corner case shifts cost toward the Access Tracker, which records every data-object access (~4%% total overhead)")
	return t, nil
}

// writeTempConfig creates a real config file so the Input Parser
// component does measurable work, as in the paper's breakdown.
func writeTempConfig() (string, error) {
	f, err := os.CreateTemp("", "dayu-config-*.json")
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := f.WriteString(`{"page_size": 4096}`); err != nil {
		return "", err
	}
	return f.Name(), nil
}
