package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"ewh/internal/exec"
	"ewh/internal/netexec"
)

// span is one traced interval. Spans of one op share Op; Parent indexes the
// span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the traced loop. A nil *tracer records
// nothing, so the untraced loop runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int // op the next spans belong to
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

// add records a span with explicit bounds; a zero end leaves it open.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Start: int64(start.Sub(t.t0)), End: -1, Parent: parent, Op: t.op}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setParent re-parents span id (a span recorded before its parent existed).
func (t *tracer) setParent(id, parent int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.mu.Lock()
		t.op = op
		t.mu.Unlock()
	}
}

// selfMS returns, per span name, the self time in milliseconds of every
// closed span: its duration minus the part of it its children cover.
func (t *tracer) selfMS() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[id], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered returns the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total int64
	cur := lo
	for _, s := range spans {
		start, end := max(s.Start, cur), min(s.End, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// tracedRuntime is the session with spans around the Runtime and
// StageRuntime calls exec.RunOver and multiway make. Embedding keeps the
// session's whole method set, so those callers see the same optional
// interfaces (chunk streaming, stages, survivors, streams) and take the same
// paths.
type tracedRuntime struct {
	*netexec.Session
	tr     *tracer
	parent int
}

func (r *tracedRuntime) RunJob(job *exec.Job, wm []exec.WorkerMetrics) error {
	id := r.tr.begin("exec.runjob", r.parent)
	defer r.tr.end(id)
	return r.Session.RunJob(job, wm)
}

// RunStages splits the pipeline at the stats-deferred replan: stage 1 runs
// until the transport calls Replan, stage 2 from its return to the end. The
// stage spans are siblings of the RunStages span, so its self time is the
// whole transport call.
func (r *tracedRuntime) RunStages(first *exec.Job, next *exec.PlanJob, wm1, wm2 []exec.WorkerMetrics) (int64, error) {
	id := r.tr.begin("netexec.runstages", r.parent)
	var mu sync.Mutex // Replan may run on a transport goroutine
	open := r.tr.begin("multiway.stage1", r.parent)
	if next.Replan != nil {
		replan := next.Replan
		wrapped := *next
		wrapped.Replan = func(summaries [][]byte) ([]byte, int, error) {
			mu.Lock()
			r.tr.end(open)
			mu.Unlock()
			rp := r.tr.begin("multiway.stage2_replan", r.parent)
			plan, workers, err := replan(summaries)
			r.tr.end(rp)
			mu.Lock()
			open = r.tr.begin("multiway.stage2", r.parent)
			mu.Unlock()
			return plan, workers, err
		}
		next = &wrapped
	}
	n, err := r.Session.RunStages(first, next, wm1, wm2)
	mu.Lock()
	r.tr.end(open)
	mu.Unlock()
	r.tr.end(id)
	return n, err
}
