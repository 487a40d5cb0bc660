package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records wall-time spans around the benchmark's calls into each
// layer. Spans stay in memory and are written out when the run ends. A
// nil tracer records nothing, which is how the untraced run measures.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Parent is 0 for a root span; spans of
// one pass share its Pass identifier.
type spanRec struct {
	ID, Parent, Pass int64
	Layer            string
	Start, End       time.Duration // since t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; the zero span (from a nil tracer) is inert.
type span struct {
	t                *tracer
	id, parent, pass int64
	layer            string
	start            time.Time
}

// begin opens a root span that starts a new pass.
func (t *tracer) begin(layer string) span {
	if t == nil {
		return span{}
	}
	id := t.next.Add(1)
	return span{t: t, id: id, pass: id, layer: layer, start: time.Now()}
}

// child opens a span caused by s.
func (s span) child(layer string) span {
	if s.t == nil {
		return span{}
	}
	return span{t: s.t, id: s.t.next.Add(1), parent: s.id, pass: s.pass, layer: layer, start: time.Now()}
}

// end closes the span.
func (s span) end() {
	if s.t != nil {
		s.t.add(s, s.start, time.Now())
	}
}

// record adds a finished child span of s with explicit bounds (for work
// reported by a callback after the fact, such as a study cell).
func (s span) record(layer string, start, end time.Time) {
	if s.t != nil {
		s.t.add(span{id: s.t.next.Add(1), parent: s.id, pass: s.pass, layer: layer}, start, end)
	}
}

func (t *tracer) add(s span, start, end time.Time) {
	r := spanRec{ID: s.id, Parent: s.parent, Pass: s.pass, Layer: s.layer,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	out := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals (clipped to it), keyed by span ID.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		covered := time.Duration(0)
		cur := s.Start
		// Children are in start order (spans is sorted); sweep their union.
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []spanRec) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, with its id, parent and pass.
func writeChrome(path string, spans []spanRec) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Layer, Ph: "X", Pid: 1, Tid: s.Pass,
			Ts: us(s.Start), Dur: us(s.End - s.Start),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "pass": s.Pass},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
