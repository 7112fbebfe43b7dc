package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Layer spans are named
// "<module>.<call>" after one of layerModules; other spans are harness
// spans (phase grouping, bookkeeping) and count as unattributed.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Lane   int    `json:"lane"` // worker lane inside a parallel parent
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Lanes > 1 marks a parallel span: its children run on that many
	// lanes at once, so each child's wall share is its duration / Lanes.
	Lanes int `json:"lanes,omitempty"`
	// Agg marks an aggregate span: the summed duration of many calls of
	// one kind (e.g. every derivation listener callback of a fixpoint).
	// Its Start/End are synthetic: End-Start is the summed duration.
	Agg int64 `json:"agg_calls,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; writeTo dumps them at the end of a run.
// Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// A nil tracer records nothing: begin returns -1 and every other method
// is a no-op, so the same replay code runs traced and untraced.

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Lane: lane, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setLanes marks span id as running its children on n lanes.
func (t *tracer) setLanes(id, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Lanes = n
	t.mu.Unlock()
}

// aggregate records calls of one kind totalling d as a child of parent.
func (t *tracer) aggregate(name string, parent, lane int, d time.Duration, calls int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Lane: lane, Start: start, End: start + int64(d), Agg: calls})
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, lane int, fn func() error) error {
	id := t.begin(name, parent, lane)
	err := fn()
	t.end(id)
	return err
}

// attribution is the reconciliation of one root span, in seconds: the
// wall share of every layer span name plus the unattributed share, which
// add up to the root's duration; busy is each layer's summed self time
// over all lanes.
type attribution struct {
	wall         float64
	share        map[string]float64
	busy         map[string]float64
	unattributed float64
}

// attribute computes self times under root. A span's self time is its
// duration minus its children's coverage; inside a span with Lanes = n
// the children cover (sum of their durations) / n of the wall, and each
// child's wall share is weighted by 1/n, so the weighted self times of all
// spans below root add up to root's duration.
func (t *tracer) attribute(root int, isLayer func(string) bool) attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	a := attribution{
		wall:  float64(t.spans[root].dur()) / 1e9,
		share: map[string]float64{},
		busy:  map[string]float64{},
	}
	var walk func(id int, weight float64)
	walk = func(id int, weight float64) {
		s := &t.spans[id]
		lanes := 1.0
		if s.Lanes > 1 {
			lanes = float64(s.Lanes)
		}
		var covered float64
		for _, c := range children[id] {
			covered += float64(t.spans[c].dur())
		}
		self := (float64(s.dur()) - covered/lanes) / 1e9
		if isLayer(s.Name) {
			a.share[s.Name] += weight * self
			a.busy[s.Name] += self
		} else {
			a.unattributed += weight * self
		}
		for _, c := range children[id] {
			walk(c, weight/lanes)
		}
	}
	walk(root, 1)
	return a
}

// reconciles reports whether the layer shares plus the unattributed share
// add up to the wall time, to rounding.
func (a attribution) reconciles() bool {
	sum := a.unattributed
	for _, d := range a.share {
		sum += d
	}
	return math.Abs(sum-a.wall) <= 1e-9*a.wall+1e-9
}

// writeTo writes every span as one JSON line to path.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run writes its spans, inside the build
// directory of the checkout.
func spanPath(r *run) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
}

// extend lengthens a closed span by d (a synthetic child appended after
// the fact, such as a phase measured by the solver itself).
func (t *tracer) extend(id int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End += int64(d)
	t.mu.Unlock()
}
