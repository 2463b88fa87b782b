package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Parent is -1 for a root; Op is the op index the span belongs to (-1 for
// set-up and replays that serve no single op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. Safe for
// concurrent use: decide_service records handler spans on server
// goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span starting now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span that started at a given instant: an open-loop
// request's op span starts at its due time, not when it was sent.
func (t *tracer) beginAt(name string, parent, op int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span the caller timed itself.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one span name's accumulated time over a run.
type layerTime struct {
	Calls   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children (concurrent requests) are merged so shared time counts once.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - coveredNS(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// coveredNS is the length of the union of the children's intervals clipped
// to the parent's.
func coveredNS(parent span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		if lo, hi := max(k.Start, parent.Start), min(k.End, parent.End); hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur interval
	for i, v := range ivs {
		if i == 0 || v.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	return total + cur.hi - cur.lo
}

// writeSpans writes one JSON object per span to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
