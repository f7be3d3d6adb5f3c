package trace

import (
	"testing"
	"time"
)

// Self time subtracts the union of the children, not their sum, and never
// more than the parent's own interval.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "dup", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "linkdisc", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "store", Start: 90, End: 120},   // runs past the parent
		{ID: 5, Parent: 3, Layer: "rel", Start: 35, End: 45},      // grandchild: only reduces span 3
		{ID: 6, Layer: "flatfile", Start: 200, End: 230},          // separate root
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"core":     40, // 100 - ([10,60] + [90,100])
		"dup":      30,
		"linkdisc": 20, // 30 - [35,45]
		"store":    30,
		"rel":      10,
		"flatfile": 30,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	r := New()
	root := r.Begin(7, 0, "ingest", "Run")
	child := r.Begin(7, root, "flatfile", "Next")
	open := r.Begin(7, root, "dup", "FindNew") // never closed: not reported
	_ = open
	if d := r.End(child); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Request != 7 {
		t.Errorf("child span not linked to its parent and request: %+v", spans[1])
	}
	if spans[0].End < spans[1].End {
		t.Errorf("parent ended before child: %+v", spans)
	}
}
