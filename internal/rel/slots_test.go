package rel

import "testing"

// probeAll returns the entries Probe yields for h, in probe order.
func probeAll(s *Slots, h uint64) []int32 {
	var out []int32
	p := s.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		out = append(out, e)
	}
	return out
}

// find returns the entry of keys equal to k under hash h, or -1: the
// caller's equality test decides among entries with equal hashes.
func find(s *Slots, keys []string, h uint64, k string) int32 {
	p := s.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if keys[e] == k {
			return e
		}
	}
	return -1
}

func TestSlots(t *testing.T) {
	var empty Slots
	if got := probeAll(&empty, 0); got != nil {
		t.Fatalf("probe on an empty table yielded %v", got)
	}
	if got := probeAll(&empty, ^uint64(0)); got != nil {
		t.Fatalf("probe on an empty table yielded %v", got)
	}

	// Distinct keys under one 64-bit hash: Probe yields all of them, in
	// Add order, and only the caller's equality test tells them apart.
	var s Slots
	var keys []string
	for _, k := range []string{"a", "b", "c"} {
		if e := s.Add(42); int(e) != len(keys) {
			t.Fatalf("Add returned %d, want %d", e, len(keys))
		}
		keys = append(keys, k)
	}
	if got := probeAll(&s, 42); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("probe(42) = %v, want [0 1 2]", got)
	}
	if e := find(&s, keys, 42, "c"); e != 2 {
		t.Errorf("find c = %d, want 2", e)
	}
	if e := find(&s, keys, 42, "d"); e != -1 {
		t.Errorf("find d = %d, want -1", e)
	}
	if got := probeAll(&s, 43); got != nil {
		t.Errorf("probe(43) = %v, want nothing", got)
	}

	// Growth through several doublings: every entry is still found, and
	// the load bound holds. Hashes share low bits to force long runs.
	hash := func(i int) uint64 { return uint64(i%7)<<40 | uint64(i/7)*16 }
	for i := len(keys); i < 1000; i++ {
		s.Add(hash(i))
		keys = append(keys, string(rune('A'+i%26))+string(rune(i)))
	}
	if s.Len() != 1000 || len(s.slots) != 2048 {
		t.Fatalf("Len %d slots %d, want 1000 and 2048", s.Len(), len(s.slots))
	}
	for i := 3; i < 1000; i++ {
		if e := find(&s, keys, hash(i), keys[i]); e != int32(i) {
			t.Fatalf("entry %d found at %d after growth", i, e)
		}
	}
	if e := find(&s, keys, 42, "b"); e != 1 {
		t.Errorf("colliding entry b found at %d after growth", e)
	}

	// A clone grows on its own; the original neither sees its entries
	// nor loses its own.
	c := s.Clone()
	for i := 1000; i < 3000; i++ {
		c.Add(hash(i))
	}
	if s.Len() != 1000 || len(s.slots) != 2048 || c.Len() != 3000 || len(c.slots) != 4096 {
		t.Fatalf("after clone growth: original %d/%d, clone %d/%d", s.Len(), len(s.slots), c.Len(), len(c.slots))
	}
	for i := 1000; i < 3000; i++ {
		for _, e := range probeAll(&s, hash(i)) {
			if int(e) >= 1000 {
				t.Fatalf("original yields the clone's entry %d", e)
			}
		}
		found := false
		for _, e := range probeAll(&c, hash(i)) {
			found = found || int(e) == i
		}
		if !found {
			t.Fatalf("clone lost entry %d", i)
		}
	}
	for i := 3; i < 1000; i++ {
		if e := find(&s, keys, hash(i), keys[i]); e != int32(i) {
			t.Fatalf("original entry %d found at %d after clone growth", i, e)
		}
	}
}
