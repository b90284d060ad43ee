package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the span that caused it (-1 for a root); Start and End are
// offsets from the recorder's creation.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

// recorder keeps spans in memory and writes them out when the run ends.
// A nil recorder is the untraced run: every method is a no-op, so the
// measured loops are written once.
//
// It is used from one goroutine at a time: the benchmark's own, or the
// coordinator's OnEpoch callback while the benchmark's goroutine is
// blocked inside distrib.Run.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of spans begun and not yet ended
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d ended out of order", id))
	}
	r.spans[id].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// add records a span whose boundaries were observed elsewhere (the epoch
// timestamps the coordinator hands to OnEpoch), under the innermost open
// span.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent})
}

// selfTime returns, per span name, the summed duration minus the part
// covered by child spans.
func (r *recorder) selfTime() map[string]time.Duration {
	if r == nil {
		return nil
	}
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev) and returns the file's path.
func (r *recorder) write(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	events := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": r.workload},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", r.workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
