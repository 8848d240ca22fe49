package workloads

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/trace"
)

// gateTraceConfig is the 400-task synthetic workflow every analyzer,
// codec and stream gate runs over: five pipeline stages sharing eight
// files each, three datasets per task output.
var gateTraceConfig = SyntheticTraceConfig{Tasks: 400, Stages: 5, FilesPerStage: 8, DatasetsPerTask: 3}

// buildGateGraphs builds the FTG and the SDG with regions and file
// metadata on, at the given analyzer parallelism.
func buildGateGraphs(traces []*trace.TaskTrace, m *trace.Manifest, parallelism int) (ftg, sdg *graph.Graph) {
	ftg = analyzer.BuildFTGOpts(traces, m, analyzer.Options{Parallelism: parallelism})
	sdg = analyzer.BuildSDG(traces, m, analyzer.Options{
		Parallelism: parallelism, IncludeRegions: true, IncludeFileMetadata: true,
	})
	return ftg, sdg
}

// assertSameRenderings fails unless a and b render byte-identical DOT
// and JSON.
func assertSameRenderings(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	adot, ajs := renderGraph(t, a)
	bdot, bjs := renderGraph(t, b)
	if adot != bdot {
		t.Errorf("%s: DOT renderings differ", label)
	}
	if ajs != bjs {
		t.Errorf("%s: JSON renderings differ", label)
	}
}

// TestSyntheticSerialParallelGate is the analyzer determinism contract
// at scale: the parallel build renders byte-identically to the serial
// one. Parallelism is at least 2 so a single-core host still exercises
// the parallel merge.
func TestSyntheticSerialParallelGate(t *testing.T) {
	traces, m := GenerateSyntheticTraces(gateTraceConfig)
	par := max(runtime.GOMAXPROCS(0), 2)
	sftg, ssdg := buildGateGraphs(traces, m, 1)
	pftg, psdg := buildGateGraphs(traces, m, par)
	assertSameRenderings(t, "ftg", sftg, pftg)
	assertSameRenderings(t, "sdg", ssdg, psdg)
}

// encodeAll serializes every trace in the given format and returns the
// blobs and their total size.
func encodeAll(t testing.TB, traces []*trace.TaskTrace, f trace.Format) ([][]byte, int64) {
	t.Helper()
	blobs := make([][]byte, len(traces))
	var total int64
	for i, tt := range traces {
		var buf bytes.Buffer
		if err := tt.EncodeFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
		total += int64(buf.Len())
	}
	return blobs, total
}

// decodeAll parses blobs back into traces.
func decodeAll(t testing.TB, blobs [][]byte) []*trace.TaskTrace {
	t.Helper()
	out := make([]*trace.TaskTrace, len(blobs))
	for i, b := range blobs {
		tt, err := trace.DecodeBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tt
	}
	return out
}

// TestSyntheticCodecGate proves the wire formats interchangeable: the
// FTG and SDG built from dtb-decoded traces render byte-identically to
// the graphs built from JSON-decoded traces, and dtb is the smaller
// encoding.
func TestSyntheticCodecGate(t *testing.T) {
	traces, m := GenerateSyntheticTraces(gateTraceConfig)
	jsonBlobs, jsonBytes := encodeAll(t, traces, trace.FormatJSON)
	binBlobs, binBytes := encodeAll(t, traces, trace.FormatBinary)
	if binBytes >= jsonBytes {
		t.Errorf("dtb encodes %d bytes, not fewer than JSON's %d", binBytes, jsonBytes)
	}
	jftg, jsdg := buildGateGraphs(decodeAll(t, jsonBlobs), m, 1)
	bftg, bsdg := buildGateGraphs(decodeAll(t, binBlobs), m, 1)
	assertSameRenderings(t, "ftg", jftg, bftg)
	assertSameRenderings(t, "sdg", jsdg, bsdg)
}

// canonicalTrace returns a copy of tt with its tables in the tracer's
// canonical sort orders (what ApplyDelta reproduces), so prefix
// checkpoints of it admit exact deltas.
func canonicalTrace(tt *trace.TaskTrace) *trace.TaskTrace {
	cp := *tt
	cp.Files = append([]trace.FileRecord(nil), tt.Files...)
	sort.SliceStable(cp.Files, func(i, j int) bool { return cp.Files[i].File < cp.Files[j].File })
	cp.Objects = append([]trace.ObjectRecord(nil), tt.Objects...)
	sort.SliceStable(cp.Objects, func(i, j int) bool {
		if cp.Objects[i].File != cp.Objects[j].File {
			return cp.Objects[i].File < cp.Objects[j].File
		}
		return cp.Objects[i].Object < cp.Objects[j].Object
	})
	cp.Mapped = append([]trace.MappedStat(nil), tt.Mapped...)
	sort.SliceStable(cp.Mapped, func(i, j int) bool {
		if cp.Mapped[i].File != cp.Mapped[j].File {
			return cp.Mapped[i].File < cp.Mapped[j].File
		}
		return cp.Mapped[i].Object < cp.Mapped[j].Object
	})
	return &cp
}

// streamPrefix synthesizes the trace-so-far a checkpoint at the given
// fraction of the task would carry: the first frac of the file rows,
// the object/mapped rows belonging to those files, and the matching
// I/O-trace prefix. Later fractions strictly grow the tables, which is
// the tracer's monotone-growth invariant.
func streamPrefix(tt *trace.TaskTrace, frac float64) *trace.TaskTrace {
	cp := *tt
	nf := int(math.Ceil(float64(len(tt.Files)) * frac))
	cp.Files = tt.Files[:nf:nf]
	keep := make(map[string]bool, nf)
	for i := range cp.Files {
		keep[cp.Files[i].File] = true
	}
	cp.Objects = make([]trace.ObjectRecord, 0, len(tt.Objects))
	for _, o := range tt.Objects {
		if keep[o.File] {
			cp.Objects = append(cp.Objects, o)
		}
	}
	cp.Mapped = make([]trace.MappedStat, 0, len(tt.Mapped))
	for _, m := range tt.Mapped {
		if keep[m.File] {
			cp.Mapped = append(cp.Mapped, m)
		}
	}
	if tt.IOTrace != nil {
		ni := int(math.Ceil(float64(len(tt.IOTrace)) * frac))
		cp.IOTrace = tt.IOTrace[:ni:ni]
	}
	return &cp
}

// TestSyntheticDeltaFramingGate replays the synthetic trace set as 8
// checkpoints per task plus the final record, once cumulative (every
// checkpoint re-sends the trace-so-far) and once delta-framed (each
// checkpoint after the first carries only the rows changed since the
// previous one). Both modes push the same finals, so the ratio compares
// whole-stream volumes. Delta framing must at least halve the bytes,
// and every synthetic prefix pair must admit an exact delta.
func TestSyntheticDeltaFramingGate(t *testing.T) {
	const k = 8
	traces, _ := GenerateSyntheticTraces(gateTraceConfig)
	encLen := func(tt *trace.TaskTrace, opts trace.BinaryOptions) int64 {
		var buf bytes.Buffer
		if err := tt.EncodeBinaryOpts(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return int64(buf.Len())
	}
	var cumulative, delta, exact, fallbacks int64
	for _, raw := range traces {
		canon := canonicalTrace(raw)
		var prev *trace.TaskTrace
		for i := 1; i <= k; i++ {
			cp := streamPrefix(canon, float64(i)/k)
			seq := uint64(i)
			n := encLen(cp, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq})
			cumulative += n
			if prev == nil {
				delta += n
			} else if d, ok := trace.Diff(prev, cp); ok {
				delta += encLen(d, trace.BinaryOptions{
					Incremental: true, CheckpointSeq: seq,
					Delta: true, DeltaBaseSeq: seq - 1,
				})
				exact++
			} else {
				delta += n
				fallbacks++
			}
			prev = cp
		}
		final := encLen(canon, trace.BinaryOptions{})
		cumulative += final
		delta += final
	}
	if exact == 0 || fallbacks != 0 {
		t.Errorf("%d exact deltas, %d fallbacks; synthetic prefixes must all diff exactly", exact, fallbacks)
	}
	ratio := float64(cumulative) / float64(delta)
	t.Logf("cumulative %d bytes, delta %d bytes: %.2fx", cumulative, delta, ratio)
	if ratio < 2.0 {
		t.Errorf("delta framing cuts pushed bytes only %.2fx (cumulative %d, delta %d); want >= 2.0x",
			ratio, cumulative, delta)
	}
}
