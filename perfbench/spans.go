package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the span that caused it
// (0 for a root), and start and end offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Tag carries one attribute, such as the cache tier a request hit.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, attaching tag when non-empty.
func (t *tracer) end(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if tag != "" {
		t.spans[id-1].Tag = tag
	}
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the finished spans called name,
// optionally restricted to one tag, in milliseconds.
func (t *tracer) durations(name, tag string) []float64 {
	var ms []float64
	for _, s := range t.closed() {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			ms = append(ms, float64(s.dur())/1e6)
		}
	}
	return ms
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write dumps every span as JSON lines (spans.jsonl) and a per-name table
// of count, total and self time (spans.txt).
func (t *tracer) write(dir string) error {
	spans := t.closed()
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
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
	if err := f.Close(); err != nil {
		return err
	}

	type agg struct {
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	byName := make(map[string]*agg)
	var names []string
	for _, s := range spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-36s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		out += fmt.Sprintf("%-36s %8d %14.3f %14.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return os.WriteFile(filepath.Join(dir, "spans.txt"), []byte(out), 0o644)
}
