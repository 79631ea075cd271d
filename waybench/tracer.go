package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Spans form a tree through
// Parent and group into operations through Op (one config simulation, one
// coordinator run, one query). High-frequency calls — a trace-source
// window refill, a d-cache load — are not recorded one span per call: the
// wrapper sums them into a single rollup span per parent, whose Busy is
// the time spent inside the calls and Count the number of calls.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
	// Attrs carries per-span integers (loads, stores, bytes, status).
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// dur is the span's wall time, or its summed call time for a rollup.
func (s *span) dur() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer records spans in memory; they are written out once, at the end
// of the run, so recording costs an append under a mutex and no I/O. A nil
// *tracer records nothing, which is how the untraced path runs the same
// code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID allocates a span or operation id.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// begin opens a span; finish it with end.
func (t *tracer) begin(name string, parent, op int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{Name: name, ID: t.newID(), Parent: parent, Op: op, Start: t.now()}}
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON line, in start order.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// openSpan is a span in progress. Its methods are no-ops on nil, so call
// sites need no tracing checks.
type openSpan struct {
	t *tracer
	s span
}

// id returns the span id (0 when not tracing), for children's Parent.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// attr sets an integer attribute.
func (o *openSpan) attr(k string, v int64) {
	if o == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = make(map[string]int64)
	}
	o.s.Attrs[k] = v
}

// end closes and records the span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = o.t.now()
	o.t.add(o.s)
}

// spanIndex groups recorded spans by name for metric derivation.
type spanIndex map[string][]*span

func indexSpans(spans []span) spanIndex {
	ix := make(spanIndex)
	for i := range spans {
		ix[spans[i].Name] = append(ix[spans[i].Name], &spans[i])
	}
	return ix
}

// total sums the durations of every span named name.
func (ix spanIndex) total(name string) int64 {
	var n int64
	for _, s := range ix[name] {
		n += s.dur()
	}
	return n
}

// count sums Count (rollups) or counts spans (plain spans).
func (ix spanIndex) count(name string) int64 {
	var n int64
	for _, s := range ix[name] {
		if s.Count > 0 {
			n += s.Count
		} else {
			n++
		}
	}
	return n
}

// attrSum sums one attribute over every span named name.
func (ix spanIndex) attrSum(name, attr string) int64 {
	var n int64
	for _, s := range ix[name] {
		n += s.Attrs[attr]
	}
	return n
}

// durations lists the durations of every span named name.
func (ix spanIndex) durations(name string) []time.Duration {
	out := make([]time.Duration, 0, len(ix[name]))
	for _, s := range ix[name] {
		out = append(out, time.Duration(s.dur()))
	}
	return out
}
