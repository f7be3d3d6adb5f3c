package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/bench/corpus"
)

// BENCHMARK.json at the repository root is the contract other changes are
// held to; it must name exactly what the harness measures.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness sizes are frozen for %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, 200 allowed", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, want)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d measured (128 allowed)", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, want)
		}
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		names[d.name] = true
	}
}

// The heavy-read mix must stay within the plan cache (it is the workload
// on which plan-cache work should change nothing) and its expected answers
// must come out of the generated records.
func TestScanMixAnswersComeFromTheGenerator(t *testing.T) {
	embl := corpus.EMBL(9, "swissprot", 1200, 50)
	m := newScanMix(embl)
	texts := map[string]bool{}
	classes := map[string]bool{}
	for _, r := range m.reqs {
		texts[r.call.sql] = true
		classes[r.class] = true
		if len(r.want) == 0 || r.call.limit == 0 {
			t.Errorf("%s request %q checks nothing or has no page size", r.class, r.call.sql)
		}
	}
	if len(texts) > 16 {
		t.Errorf("%d distinct SQL texts; the mix promises at most 16", len(texts))
	}
	for _, c := range []string{"like", "join", "group", "distinct", "order"} {
		if !classes[c] {
			t.Errorf("mix has no %s query", c)
		}
	}
	order := m.reqs[len(m.reqs)-1]
	if order.then == nil {
		t.Fatal("1200 entries exceed one page, so ORDER BY must follow a cursor")
	}
	next := order.then([]byte(`{"count":1000,"next_cursor":"abc"}`))
	if next == nil || !strings.Contains(next.path, "cursor=abc") || next.want[0] != `"count":200` {
		t.Errorf("second page request = %+v", next)
	}
	if order.then([]byte(`{"count":1000}`)) != nil {
		t.Error("a first page without next_cursor must not yield a second request")
	}
}

// The point mix must mostly miss a plan cache of aladind's size and policy,
// and the scan mix must always hit it: that difference is why both exist.
func TestPlanCacheMissShareOfTheMixes(t *testing.T) {
	embl := corpus.EMBL(4, "swissprot", baseEMBL, ontologyTerms)
	for _, tc := range []struct {
		name     string
		m        mix
		min, max float64
	}{
		{"point", pointMix{embl}, 0.85, 0.95}, // 1 - 128/1200 = 0.89
		{"scan", newScanMix(embl), 0, 0},
	} {
		next := tc.m.stream(rand.New(rand.NewSource(1)))
		plans := newPlanLRU()
		for i := 0; i < 30000; i++ {
			if i == 10000 { // warm-up over
				plans.resetCounts()
			}
			if r := next(); r.call.sql != "" {
				plans.touch(r.call.sql)
			}
		}
		if got := float64(plans.misses) / float64(plans.hits+plans.misses); got < tc.min || got > tc.max {
			t.Errorf("%s mix: plan-cache miss share %.3f, want %.2f..%.2f", tc.name, got, tc.min, tc.max)
		}
	}
}

func TestPlanLRUEvictsTheLeastRecentlyUsed(t *testing.T) {
	c := newPlanLRU()
	text := func(i int) string { return "SELECT " + strconv.Itoa(i) }
	for i := 0; i < planCacheSize; i++ {
		c.touch(text(i))
	}
	if !c.touch(text(0)) { // now the most recent
		t.Error("a text within the cache's size was evicted")
	}
	c.touch(text(planCacheSize)) // evicts text(1), the least recent
	if !c.touch(text(0)) || c.touch(text(1)) {
		t.Error("eviction did not take the least recently used text")
	}
	if c.misses != planCacheSize+2 || c.hits != 2 {
		t.Errorf("counted %d misses and %d hits, want %d and 2", c.misses, c.hits, planCacheSize+2)
	}
}

func TestSnapshotSeq(t *testing.T) {
	for in, want := range map[string]uint64{"g3-s17": 17, "g0-s0": 0, "g12-s4096": 4096} {
		if got, ok := snapshotSeq(in); !ok || got != want {
			t.Errorf("snapshotSeq(%q) = %d, %v", in, got, ok)
		}
	}
	for _, bad := range []string{"", "g3", "g3-sx"} {
		if _, ok := snapshotSeq(bad); ok {
			t.Errorf("snapshotSeq(%q) should fail", bad)
		}
	}
}
