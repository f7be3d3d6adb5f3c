// Package trace records the benchmark's spans: one per call from the
// harness into a layer of the system, kept in memory and written out when
// the run ends. A layer's self time is its span's duration minus the part
// of that interval its child spans cover.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer.
type Span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one (0 = none).
	Parent int `json:"parent,omitempty"`
	// Request is shared by every span of one request or upload.
	Request int `json:"request"`
	// Layer is the module called; Op the function.
	Layer string `json:"layer"`
	Op    string `json:"op"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Recorder collects spans; it is safe for concurrent use.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// New starts a recorder.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID, to be passed to End and used as
// the Parent of spans it causes.
func (r *Recorder) Begin(request, parent int, layer, op string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Layer: layer, Op: op, Start: now, End: -1})
	return id
}

// End closes the span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// Spans returns a copy of the closed spans recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes sums, per layer, each span's duration minus the part of it
// covered by its direct children. Overlapping children (parallel calls)
// are counted once, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, c := range iv {
		a, b := max(c[0], end), min(c[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
