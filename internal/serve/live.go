package serve

// Live streaming analysis: /v1/ingest also accepts incremental
// checkpoint records (dtb/v2 with the incremental flag bit), each a
// cumulative snapshot of one task's trace-so-far. The server keeps at
// most one checkpoint per task — the highest sequence number wins, so
// delivery order does not matter — persisted under WALDir/partials/
// and overlaid on the batch snapshot for the /v1/live/* endpoints.
//
// Fold/retract semantics keep the live view convergent with batch
// analysis by construction:
//
//   - A checkpoint for a task whose final trace already sits in the
//     watched directory is dropped: finals always supersede partials.
//   - A checkpoint older than the retained one (seq <=) is dropped.
//   - A final record folding into the directory retracts the task's
//     partial (entry and file).
//
// Once every task's final has folded, zero partials remain and the
// live graphs alias the batch graphs — /v1/live/ftg is then served
// from the same rendered bytes as /v1/ftg, which is how the
// stream-equals-batch equivalence gate holds at end of stream.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/trace"
)

// partialEntry is the retained checkpoint for one task.
type partialEntry struct {
	seq   uint64
	hash  string // content hash of the checkpoint record bytes
	trace *trace.TaskTrace
}

// partialsDir is where retained checkpoint records persist across
// restarts (one file per task, checkpoint-record bytes verbatim).
func (s *Server) partialsDir() string {
	return filepath.Join(s.cfg.WALDir, "partials")
}

// finalExists reports whether a complete trace for task is already in
// the watched directory (either serialization).
func (s *Server) finalExists(task string) bool {
	for _, f := range []trace.Format{trace.FormatBinary, trace.FormatJSON} {
		if _, err := os.Stat(filepath.Join(s.cfg.Dir, trace.TraceFileName(task, f))); err == nil {
			return true
		}
	}
	return false
}

// foldCheckpoint applies one incremental record: persist it under the
// partials directory and retain it in memory iff it is the newest
// checkpoint for a task that has no final yet. A delta record is first
// reassembled onto the retained partial at its base sequence
// (trace.ApplyDelta) and persisted in the reassembled cumulative form,
// re-encoded deterministically — so the partials directory, restarts,
// and the snapshot hash are indistinguishable from a cumulative
// stream's. Runs in the single folder goroutine (or startup replay),
// so checkpoints for one task are applied sequentially and a delta
// always folds after its base.
func (s *Server) foldCheckpoint(data []byte, task string, meta trace.RecordMeta) error {
	seq := meta.CheckpointSeq
	if s.finalExists(task) {
		return nil // finals supersede partials
	}
	s.partialMu.Lock()
	prev, ok := s.partials[task]
	s.partialMu.Unlock()
	if ok && prev.seq >= seq {
		return nil // stale delivery (retries, reordering)
	}
	// Retain an owned decode: the raw bytes are the WAL/queue payload.
	tt, meta2, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{})
	if err != nil || !meta2.Incremental {
		return fmt.Errorf("%w: checkpoint re-decode: %v", errUnfoldable, err)
	}
	if meta.Delta {
		if !ok || prev.seq != meta.DeltaBaseSeq {
			// No partial at the delta's base: the ingest gate bounced
			// such deltas, so this is a replayed record whose base was
			// superseded before the crash. The client has already (or
			// will) resync cumulatively; dropping is safe and keeps
			// refolding idempotent.
			s.deltaDrops.Inc()
			return nil
		}
		cum := trace.ApplyDelta(prev.trace, tt)
		var buf bytes.Buffer
		if err := cum.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
			return fmt.Errorf("%w: reassemble delta: %v", errUnfoldable, err)
		}
		data, tt = buf.Bytes(), cum
		s.deltaFolds.Inc()
	}
	path := filepath.Join(s.partialsDir(), trace.TraceFileName(task, trace.FormatBinary))
	if err := trace.WriteFileAtomic(path, data); err != nil {
		return err
	}
	s.partialMu.Lock()
	if prev, ok := s.partials[task]; !ok || prev.seq < seq {
		s.partials[task] = &partialEntry{seq: seq, hash: trace.HashBytes(data), trace: tt}
		s.partialsGen++
		if seq > s.streamSeqs[task] {
			s.streamSeqs[task] = seq
		}
	}
	s.partialMu.Unlock()
	s.partialFolds.Inc()
	return nil
}

// retractPartial drops a task's retained checkpoint after its final
// trace landed. A crash between the final's rename and the partial
// file's removal leaves a shadowed file; loadPartials cleans those up
// on the next start.
func (s *Server) retractPartial(task string) {
	s.partialMu.Lock()
	_, ok := s.partials[task]
	if ok {
		delete(s.partials, task)
		s.partialsGen++
	}
	delete(s.streamSeqs, task)
	s.partialMu.Unlock()
	if ok {
		_ = os.Remove(filepath.Join(s.partialsDir(), trace.TraceFileName(task, trace.FormatBinary)))
		s.partialRetracts.Inc()
	}
}

// loadPartials restores retained checkpoints from the partials
// directory at startup, before WAL replay (replayed checkpoint
// records then apply the usual newest-wins rule against them).
// Files that are corrupt, not checkpoint records, or shadowed by a
// final in the trace directory are removed.
func (s *Server) loadPartials() error {
	dir := s.partialsDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: scan partials: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !trace.IsTraceFile(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("serve: read partial %s: %w", path, err)
		}
		tt, meta, err := trace.DecodeBytesMeta(data, trace.DecodeOptions{})
		if err != nil || !meta.Incremental || s.finalExists(tt.Task) {
			// Corrupt, a stray complete trace, or superseded by a final:
			// stale either way. Removal is safe — the record is either
			// invalid or reconstructible from the directory.
			_ = os.Remove(path)
			continue
		}
		if prev, ok := s.partials[tt.Task]; ok && prev.seq >= meta.CheckpointSeq {
			continue
		}
		s.partials[tt.Task] = &partialEntry{seq: meta.CheckpointSeq, hash: trace.HashBytes(data), trace: tt}
		if meta.CheckpointSeq > s.streamSeqs[tt.Task] {
			s.streamSeqs[tt.Task] = meta.CheckpointSeq
		}
		s.partialsGen++
	}
	return nil
}

// liveGraphHandler serves /v1/live/ftg and /v1/live/sdg: the batch
// graph overlaid with checkpoint traces for tasks still in flight.
// ?window=<duration> additionally aggregates task nodes along the
// time dimension (AggregateByTime) before rendering.
func (s *Server) liveGraphHandler(which string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, err := s.current()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		g := snap.liveFTG
		if which == "sdg" {
			g = snap.liveSDG
		}
		windowNS, ok := durationParam(w, r, "window")
		if !ok {
			return
		}
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "json"
		}
		var contentType string
		switch format {
		case "json":
			contentType = "application/json"
		case "dot":
			contentType = "text/vnd.graphviz; charset=utf-8"
		case "html":
			contentType = "text/html; charset=utf-8"
		case "svg":
			contentType = "image/svg+xml"
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (json, dot, html, svg)", format), http.StatusBadRequest)
			return
		}
		key := "live-" + which + "." + format
		switch {
		case windowNS > 0:
			key = fmt.Sprintf("live-%s.w%d.%s", which, windowNS, format)
		case snap.partialTasks == 0:
			// No partials: the live graph aliases the batch graph, and
			// sharing the render key makes the responses byte-identical
			// (the equivalence gate at end of stream).
			key = which + "." + format
		}
		body, err := s.render(snap, key, func() ([]byte, error) {
			out := g
			if windowNS > 0 {
				// The cross-snapshot cache: when only a few tasks folded
				// since the last render of this window, the fingerprint
				// pass proves the windowed projection unchanged and the
				// previous aggregation is reused (byte-identical output
				// is the cache's contract).
				agg, err := s.timeAgg.Aggregate(g, "live-"+which, snap.id, windowNS)
				if err != nil {
					return nil, err
				}
				out = agg
			}
			return renderGraph(out, format)
		})
		if err != nil {
			if errors.Is(err, analyzer.ErrNonPositiveWindow) {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		s.setLiveHeaders(w, snap)
		_, _ = w.Write(body)
	}
}

// handleLiveDiagnostics is /v1/live/diagnostics: anti-pattern
// detection over the live trace set (complete traces plus retained
// checkpoints). ?horizon=<duration> restricts the analysis to traces
// whose activity ends within the trailing horizon, for "what is going
// wrong right now" queries on long-running workflows. The response
// encoding matches /v1/diagnose exactly, so once the stream completes
// (zero partials, no horizon) the bytes are identical.
func (s *Server) handleLiveDiagnostics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.current()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	horizonNS, ok := durationParam(w, r, "horizon")
	if !ok {
		return
	}
	key := "live-diagnose"
	switch {
	case horizonNS > 0:
		key = fmt.Sprintf("live-diagnose.h%d", horizonNS)
	case snap.partialTasks == 0:
		key = "diagnose" // byte-identical to /v1/diagnose
	}
	body, err := s.render(snap, key, func() ([]byte, error) {
		traces := snap.liveTraces
		if horizonNS > 0 {
			traces = horizonTraces(traces, horizonNS)
		}
		return diagnose.EncodeJSON(diagnose.Analyze(traces, snap.manifest, diagnose.Thresholds{}))
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.setLiveHeaders(w, snap)
	_, _ = w.Write(body)
}

// setLiveHeaders stamps the snapshot identity and stream progress on
// a live response.
func (s *Server) setLiveHeaders(w http.ResponseWriter, snap *snapshot) {
	w.Header().Set("X-Dayu-Snapshot", snap.id)
	w.Header().Set("X-Dayu-Partial-Tasks", strconv.Itoa(snap.partialTasks))
	w.Header().Set("X-Dayu-Complete-Tasks", strconv.Itoa(len(snap.traces)))
}

// durationParam parses an optional positive duration query parameter,
// answering 400 itself (and returning ok=false) on bad input.
func durationParam(w http.ResponseWriter, r *http.Request, name string) (int64, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, true
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		http.Error(w, fmt.Sprintf("bad %s %q: want a positive duration like 500ms or 2s", name, raw), http.StatusBadRequest)
		return 0, false
	}
	return d.Nanoseconds(), true
}

// horizonTraces keeps the traces whose activity ends within the
// trailing horizon window, anchored at the newest end timestamp in
// the set (wall clocks of pushing tasks need not agree with ours).
func horizonTraces(traces []*trace.TaskTrace, horizonNS int64) []*trace.TaskTrace {
	var maxEnd int64
	for _, t := range traces {
		if t.EndNS > maxEnd {
			maxEnd = t.EndNS
		}
	}
	cut := maxEnd - horizonNS
	out := make([]*trace.TaskTrace, 0, len(traces))
	for _, t := range traces {
		if t.EndNS >= cut {
			out = append(out, t)
		}
	}
	return out
}
