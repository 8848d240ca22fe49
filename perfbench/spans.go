package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer of the program.
// Layer is the part of Name before the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is the plain (unprofiled) mode.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// spanRef is an open span; its zero value is inert.
type spanRef struct {
	log *spanLog
	idx int
}

// begin opens a span under parent (0 for a root).
func (l *spanLog) begin(name string, op int64, parent spanRef) spanRef {
	if l == nil {
		return spanRef{}
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	pid := 0
	if parent.log != nil {
		pid = parent.idx + 1
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: pid, Op: op, Name: name, Start: now})
	return spanRef{log: l, idx: len(l.spans) - 1}
}

// end closes the span.
func (r spanRef) end() {
	if r.log == nil {
		return
	}
	now := time.Since(r.log.epoch).Nanoseconds()
	r.log.mu.Lock()
	r.log.spans[r.idx].End = now
	r.log.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, op int64, parent spanRef, fn func()) {
	r := l.begin(name, op, parent)
	fn()
	r.end()
}

// selfTimes returns each layer's self time in nanoseconds: the span's
// duration minus the part of it its direct children cover.
func (l *spanLog) selfTimes() map[string]int64 {
	out := map[string]int64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range l.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End == 0 || e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (l *spanLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}
