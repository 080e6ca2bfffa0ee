package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Spans of one
// request or one exploration share a Trace id; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span (or trace) id. Spans are recorded when they end,
// often after their children, so parents take their id up front.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, trace uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished span under a fresh id and returns the id.
func (t *tracer) add(parent, trace uint64, name string, start, end time.Time) uint64 {
	id := t.id()
	t.record(id, parent, trace, name, start, end)
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children count once).
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64
		reach = s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
