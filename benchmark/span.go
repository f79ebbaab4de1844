package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around its own call. Op is the identifier every span of one
// operation shares; Parent is the span that caused this one (-1 for the
// operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer,omitempty"` // module the time is charged to; "" on root spans
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Derived marks a span whose duration was measured (by the program's
	// own stats or a staged replay) but whose position inside its parent is
	// laid out by the benchmark — layers behind HTTP report how long they
	// ran, not when.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// stagedLayer marks the root span of a decomposition pass: an operation the
// traced run performs one public call at a time, outside the measured
// windows. Its children count toward the per-layer times; the root itself is
// not caller-observed latency, so it stays out of the unexplained share.
const stagedLayer = "staged"

// tracer keeps spans in memory until the benchmark ends. The untraced run
// has none: runOp hands ops a nil *opRec instead.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates an operation identifier.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a closed span and returns its id.
func (t *tracer) add(parent, op int, layer, name string, start, end time.Time, derived bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Derived: derived,
	})
	return id
}

// open records a span whose end is not yet known; finish closes it.
func (t *tracer) open(parent, op int, layer, name string, start time.Time) int {
	return t.add(parent, op, layer, name, start, start, false)
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.epoch)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for id, s := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[id] = s.dur() - covered
	}
	return out
}

// traceSummary reduces a trace to what the per-layer metrics need: self time
// summed by span name, the number of spans of each name, and the share of
// root-span (caller-observed) time that no child span covers.
type traceSummary struct {
	selfByName  map[string]time.Duration
	countByName map[string]int
	unexplained float64
}

func summarize(spans []span) traceSummary {
	self := selfTimes(spans)
	ts := traceSummary{selfByName: map[string]time.Duration{}, countByName: map[string]int{}}
	var rootDur, rootSelf time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			if s.Layer != stagedLayer {
				rootDur += s.dur()
				rootSelf += self[s.ID]
			}
			continue
		}
		ts.selfByName[s.Name] += self[s.ID]
		ts.countByName[s.Name]++
	}
	if rootDur > 0 {
		ts.unexplained = float64(rootSelf) / float64(rootDur)
	}
	return ts
}

// writeTrace dumps the spans of one workload as JSON.
func writeTrace(path, workload string, spans []span) error {
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
