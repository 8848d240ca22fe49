package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dayu/internal/obs"
	"dayu/internal/serve/client"
	"dayu/internal/trace"
	"dayu/internal/workloads"
)

const (
	liveBase        = 150 // tasks preloaded before streaming starts
	liveRate        = 20  // records per second, open loop
	liveCheckpoints = 4   // cumulative checkpoints before each final
	// liveActive is how many streamed tasks are in flight once the
	// schedule is full: a task stays for one round per record it sends.
	liveActive = liveCheckpoints + 1
	// convergeBound is how long after the last record the live view may
	// take to show every streamed task complete.
	convergeBound = 10 * time.Second
)

// record is one pre-encoded push.
type record struct {
	task   string
	final  bool
	due    time.Duration // from the start of the schedule
	data   []byte
	traced bool // in profiled runs, alternate tasks record spans
}

// prefix is the trace-so-far a cumulative checkpoint carries: the first
// part of the file rows with their object and mapped rows.
func prefix(t *trace.TaskTrace, k, of int) *trace.TaskTrace {
	cp := *t
	nf := int(math.Ceil(float64(len(t.Files)) * float64(k) / float64(of)))
	cp.Files = t.Files[:nf:nf]
	keep := map[string]bool{}
	for _, f := range cp.Files {
		keep[f.File] = true
	}
	cp.Objects, cp.Mapped = nil, nil
	for _, ob := range t.Objects {
		if keep[ob.File] {
			cp.Objects = append(cp.Objects, ob)
		}
	}
	for _, mp := range t.Mapped {
		if keep[mp.File] {
			cp.Mapped = append(cp.Mapped, mp)
		}
	}
	cp.EndNS = t.StartNS + (t.EndNS-t.StartNS)*int64(k)/int64(of+1)
	return &cp
}

// schedule interleaves the streamed tasks' records in rounds. One task
// starts per round, and each round gives one slot to every task in
// flight, in an order the seed chooses. Once the stream is full, each
// round holds one record of every stage (liveActive tasks), so exactly
// one final is sent per round rather than several back to back. The
// records are encoded here, before the run, and record no spans: the
// profiled pushes carry only work done while they are measured.
func schedule(rng *rand.Rand, tasks []*trace.TaskTrace) ([]record, error) {
	var out []record
	next := 0
	type active struct {
		t    *trace.TaskTrace
		idx  int
		sent int
	}
	var act []*active
	for len(out) < len(tasks)*(liveCheckpoints+1) {
		if next < len(tasks) {
			act = append(act, &active{t: tasks[next], idx: next})
			next++
		}
		for _, i := range rng.Perm(len(act)) {
			a := act[i]
			a.sent++
			var buf bytes.Buffer
			rec := record{task: a.t.Task, due: time.Duration(len(out)) * time.Second / liveRate, traced: a.idx%2 == 0}
			var err error
			if a.sent <= liveCheckpoints {
				err = prefix(a.t, a.sent, liveCheckpoints).EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: uint64(a.sent)})
			} else {
				rec.final = true
				err = a.t.EncodeBinary(&buf)
			}
			if err != nil {
				return nil, err
			}
			rec.data = buf.Bytes()
			out = append(out, rec)
		}
		kept := act[:0]
		for _, a := range act {
			if a.sent <= liveCheckpoints {
				kept = append(kept, a)
			}
		}
		act = kept
	}
	return out, nil
}

// sseEvent is one /v1/live/events snapshot event as received.
type sseEvent struct {
	at       time.Time
	complete int
	partial  int
	bytes    int
}

// sseReader follows the live event stream until its context ends.
type sseReader struct {
	mu     sync.Mutex
	events []sseEvent
	lagged int
	notify chan struct{} // signalled after every event
	done   chan error
}

func followEvents(ctx context.Context, url string) (*sseReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/live/events", nil)
	if err != nil {
		return nil, err
	}
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	r := &sseReader{notify: make(chan struct{}, 1), done: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		var ev sseEvent
		var kind string
		first, cont := true, false
		for {
			// ReadSlice does not allocate: the stream carries about a
			// megabyte per event, and the reader must not add GC work to
			// the process it measures.
			line, err := br.ReadSlice('\n')
			full := err == bufio.ErrBufferFull
			if err != nil && !full {
				if ctx.Err() != nil {
					err = nil
				}
				r.done <- err
				return
			}
			if cont {
				// The rest of a data line longer than the buffer.
				ev.bytes += len(line)
				cont = full
				continue
			}
			cont = full
			line = bytes.TrimSuffix(line, []byte("\n"))
			switch {
			case len(line) == 0:
				if kind == "lagged" {
					r.mu.Lock()
					r.lagged++
					r.mu.Unlock()
				} else if kind == "snapshot" {
					ev.at = time.Now()
					r.mu.Lock()
					r.events = append(r.events, ev)
					r.mu.Unlock()
					select {
					case r.notify <- struct{}{}:
					default:
					}
				}
				ev, kind, first = sseEvent{}, "", true
			case bytes.HasPrefix(line, []byte("event: ")):
				kind = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				data := line[len("data: "):]
				ev.bytes += len(data) + 1
				if first {
					ev.complete = intField(data, `"complete_tasks":`)
					ev.partial = intField(data, `"partial_tasks":`)
					first = false
				}
			}
		}
	}()
	return r, nil
}

// intField reads the integer after key in a JSON line (-1 if absent).
func intField(line []byte, key string) int {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return -1
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	if err != nil {
		return -1
	}
	return n
}

func (r *sseReader) snapshot() []sseEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sseEvent(nil), r.events...)
}

// waitFor blocks until an event satisfies ok or the deadline passes.
func (r *sseReader) waitFor(deadline time.Time, ok func(sseEvent) bool) bool {
	for {
		evs := r.snapshot()
		for _, ev := range evs {
			if ok(ev) {
				return true
			}
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		select {
		case <-r.notify:
		case <-time.After(left):
		}
	}
}

// liveRig is the server, directory and event stream of one set-up.
type liveRig struct {
	dir    string
	svc    *service
	events *sseReader
	cancel context.CancelFunc
}

func (rg *liveRig) close() error {
	rg.cancel()
	err := <-rg.events.done
	rg.svc.close()
	return err
}

// runLive is the streaming workload: records pushed on an open loop
// into a server holding liveBase tasks, with one SSE subscriber.
func runLive(env *runEnv) (*outcome, error) {
	o := &outcome{latName: "fresh_ms", layer: map[string]float64{}, counts: map[string]int64{}}
	streamed := int(math.Ceil(liveRate * env.duration.Seconds() / (liveCheckpoints + 1)))
	all, manifest := workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: liveBase + streamed})
	perm := env.rng.Perm(len(all))
	var pre, str []*trace.TaskTrace
	for i, p := range perm {
		if i < liveBase {
			pre = append(pre, all[p])
		} else {
			str = append(str, all[p])
		}
	}
	recs, err := schedule(env.rng, str)
	if err != nil {
		return nil, err
	}

	// Set-up, timed setupReps times: start the server over the preloaded
	// directory with a fresh WAL, connect the SSE subscriber and wait
	// for its first event. The last set-up is the one measured.
	dir := filepath.Join(env.dir, "traces")
	if err := writeSynthetic(env, dir, pre, manifest); err != nil {
		return nil, err
	}
	var rig *liveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
			rig = nil
		}
		runtime.GC()
		t0 := time.Now()
		rig, err = setupLive(dir, filepath.Join(env.dir, fmt.Sprintf("wal%d", rep)), len(pre))
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	svc := rig.svc
	env.resetPeak()

	cl, err := client.New(svc.http.URL, client.Options{HTTPClient: httpClient(), Rand: rand.New(rand.NewSource(env.seed))})
	if err != nil {
		return nil, err
	}
	before := svc.reg.Snapshot()
	type finalAck struct {
		seq uint64
		due time.Time
	}
	var finals []finalAck
	var attempts, lateMax float64
	// lateRecords counts records sent more than one record period late:
	// a backlog that creeps shows there before it reaches the round
	// bound below.
	lateRecords := 0
	recPeriod := time.Second / liveRate
	start := time.Now()
	ctx := context.Background()
	for i, rec := range recs {
		due := start.Add(rec.due)
		sleepUntil(due)
		late := time.Since(due)
		lateMax = math.Max(lateMax, ms(late.Nanoseconds()))
		if late > recPeriod {
			lateRecords++
		}
		sp := env.spans
		if !rec.traced {
			sp = nil
		}
		var res *client.PushResult
		sp.timed("client.push", int64(i), spanRef{}, func() { res, err = cl.PushBytes(ctx, rec.data) })
		o.attempted++
		if err != nil {
			o.failed++
			o.gate("push %d (%s): %v", i, rec.task, err)
			continue
		}
		ack := ms(time.Since(due).Nanoseconds())
		o.ack = append(o.ack, ack)
		o.record(env, sp, ack)
		attempts += float64(res.Attempts)
		if rec.final {
			finals = append(finals, finalAck{res.Seq, due})
		}
	}
	lastSent := time.Now()
	baseComplete := liveBase
	want := baseComplete + streamed
	converged := rig.events.waitFor(lastSent.Add(convergeBound), func(ev sseEvent) bool {
		return ev.complete == want && ev.partial == 0
	})
	after := svc.reg.Snapshot()
	env.notePeak()
	if !converged {
		o.gate("unsustainable: the live view did not show %d complete tasks within %v of the last record", want, convergeBound)
	}
	// The schedule's period is a round: every task in flight sends one
	// record per round. A generator less than a round late still sends
	// each task's record before that task's next one is due, so what is
	// queued never exceeds one round. More than a round late, a task's
	// records bunch up behind each other: that is a growing backlog.
	period := recPeriod * liveActive
	if time.Duration(lateMax*float64(time.Millisecond)) > period {
		o.gate("unsustainable: the generator ran %.1f ms late, more than one round of the schedule (%v)", lateMax, period)
	}

	// Finals fold in WAL order on the single shard: the k-th of them is
	// visible once an event reports baseComplete+k complete tasks.
	sort.Slice(finals, func(i, j int) bool { return finals[i].seq < finals[j].seq })
	evs := rig.events.snapshot()
	for k, f := range finals {
		for _, ev := range evs {
			if ev.complete >= baseComplete+k+1 && ev.at.After(f.due) {
				o.lat = append(o.lat, ms(ev.at.Sub(f.due).Nanoseconds()))
				break
			}
		}
	}

	if converged {
		ftg, sdg, _, err := batchBodies(rig.dir)
		if err != nil {
			return nil, err
		}
		hc := httpClient()
		for _, g := range []struct {
			path string
			want []byte
		}{{"/v1/live/ftg", ftg}, {"/v1/live/sdg", sdg}} {
			body, _, err := get(hc, svc.http.URL+g.path)
			if err != nil {
				o.gate("%s: %v", g.path, err)
			} else if !bytes.Equal(body, g.want) {
				o.gate("%s differs from the batch build over the final directory", g.path)
			}
		}
	}

	rig.events.mu.Lock()
	lagged := rig.events.lagged
	rig.events.mu.Unlock()
	payload := 0
	var measured int
	for _, ev := range evs {
		if ev.at.After(start) {
			payload += ev.bytes
			measured++
		}
	}
	acceptedName := obs.Name("dayu_serve_push_total", "result", "accepted")
	rejectedName := obs.Name("dayu_serve_push_total", "result", "rejected")
	accepted := after.Counters[acceptedName] - before.Counters[acceptedName]
	snaps := after.Counters["dayu_serve_ingests_total"] - before.Counters["dayu_serve_ingests_total"]
	o.counts["serve.pushes_accepted"] = accepted
	o.counts["serve.snapshots"] = snaps
	o.layer["serve.snapshots"] = float64(snaps)
	if snaps > 0 {
		o.layer["serve.records_per_snapshot"] = float64(accepted) / float64(snaps)
	}
	o.layer["serve.wal_append_ms"] = histMeanMS(before, after, "dayu_serve_wal_append_ns")
	o.layer["serve.fold_ms"] = histMeanMS(before, after, obs.Name("dayu_serve_shard_fold_ns", "shard", "0"))
	o.layer["serve.snapshot_ms"] = histMeanMS(before, after, "dayu_serve_ingest_ns")
	o.layer["serve.contrib_hit_ratio"] = ratio(before, after, "contribution")
	o.layer["sse.events"] = float64(measured)
	o.layer["sse.lagged"] = float64(lagged)
	if measured > 0 {
		o.layer["sse.payload_bytes"] = float64(payload) / float64(measured)
	}
	if acked := o.attempted - o.failed; acked > 0 {
		o.layer["client.attempts_per_record"] = attempts / float64(acked)
	}
	o.layer["client.rejected_429"] = float64(after.Counters[rejectedName] - before.Counters[rejectedName])
	o.layer["gen.late_ms_max"] = lateMax
	o.layer["gen.late_records"] = float64(lateRecords)
	o.notes = append(o.notes, fmt.Sprintf("generator: %d records at %d/s open loop, max lateness %.3f ms, %d records more than one record period (%v) late; %d finals, %d SSE events",
		len(recs), liveRate, lateMax, lateRecords, recPeriod, len(finals), measured))
	o.inexact = []string{"serve.snapshots"} // fold coalescing depends on timing
	addSelfTimes(env, o)
	return o, nil
}

// setupLive starts the server with a WAL over dir and connects the SSE
// subscriber.
func setupLive(dir, walDir string, tasks int) (*liveRig, error) {
	svc, err := startService(dir, walDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ev, err := followEvents(ctx, svc.http.URL)
	if err != nil {
		cancel()
		svc.close()
		return nil, err
	}
	rig := &liveRig{dir: dir, svc: svc, events: ev, cancel: cancel}
	if !ev.waitFor(time.Now().Add(30*time.Second), func(e sseEvent) bool { return e.complete == tasks }) {
		rig.close()
		return nil, fmt.Errorf("no initial live event with %d tasks", tasks)
	}
	return rig, nil
}
