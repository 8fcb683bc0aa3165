package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// A Span is one timed interval recorded by the benchmark. Serial spans
// (Lane -1) nest strictly inside their parent and make up the self-time
// accounting; lane spans are one worker's share of a superstep, run in
// parallel with the other workers, and are kept for the span file and the
// barrier-wait figure only.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Lane   int           `json:"lane"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path pays one nil check per wrapped call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	open  []int // stack of open serial span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a serial span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: t.parent(), Name: name, Start: t.now(), Lane: -1})
	t.open = append(t.open, id)
	return id
}

// end closes the serial span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// add records a finished span under parent (-1: the innermost open span).
func (t *tracer) add(name string, start, end time.Duration, lane, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.parent()
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end, Lane: lane})
}

// selfTimes returns each serial span name's total self time in seconds: the
// span's duration minus the durations of its serial children. Summed over
// all names it telescopes to the total duration of the root spans.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Lane < 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		if s.Lane < 0 {
			out[s.Name] += (s.End - s.Start - child[i]).Seconds()
		}
	}
	return out
}

// durations lists the durations in seconds of the serial spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Lane < 0 && s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []tracedSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanHooks is the benchmark's own obs.Hooks: it turns superstep and phase
// events into serial spans under the engine's Run span, and the per-worker
// spans the engines emit at each barrier into lane spans.
type spanHooks struct {
	t        *tracer
	runStart time.Duration
	workers  int
	step     int // open superstep span id
	stepIDs  map[int]int

	barrierWait  time.Duration // summed over workers and supersteps
	computeUnits int64
}

func newSpanHooks(t *tracer) *spanHooks {
	return &spanHooks{t: t, step: -1, stepIDs: make(map[int]int)}
}

func (h *spanHooks) OnRunStart(info obs.RunInfo) {
	h.runStart = h.t.now()
	h.workers = info.Workers
}

func (h *spanHooks) OnSuperstepStart(step int) {
	h.step = h.t.begin("superstep")
	h.stepIDs[step] = h.step
}

func (h *spanHooks) OnSuperstepEnd(int, metrics.StepStats) { h.t.end(h.step) }

func (h *spanHooks) OnPhase(_ int, p metrics.Phase, d time.Duration) {
	now := h.t.now()
	h.t.add("phase."+p.String(), now-d, now, -1, -1)
}

func (h *spanHooks) OnSpanEnd(s span.Span) {
	switch s.Kind {
	case span.Run, span.Superstep, span.Deliver:
		// The benchmark's own Run and superstep spans cover the first two;
		// Deliver spans carry provenance but no duration.
		return
	case span.BarrierWait:
		h.barrierWait += s.Dur
	}
	parent, ok := h.stepIDs[s.Step]
	if !ok {
		parent = h.step
	}
	start := h.runStart + s.Start
	h.t.add("worker."+s.Kind.String(), start, start+s.Dur, s.Worker, parent)
}

func (h *spanHooks) OnWorkerStats(ws obs.WorkerStats) { h.computeUnits += ws.ComputeUnits }

func (h *spanHooks) OnSpanStart(span.Span)                      {}
func (h *spanHooks) OnCommMatrix(int, transport.MatrixSnapshot) {}
func (h *spanHooks) OnViolation(obs.Violation)                  {}
func (h *spanHooks) OnHeat(obs.HeatStepData)                    {}
func (h *spanHooks) OnRecovery(obs.RecoveryEvent)               {}
func (h *spanHooks) OnConverged(int, string)                    {}
