package rel

// Slots is the open-addressing probe array under every hash table in
// the repository: the relation indexes here and the executor's join,
// group, DISTINCT and IN tables in sqlx. It records each entry's 64-bit
// hash and places entries (as index + 1, 0 for an empty slot) in a
// power-of-two array by linear probing, growing at 75 % load by
// re-placing entries from their stored hashes — no key is re-hashed.
// It knows nothing of keys: a table keeps its own entries, in Add
// order, and checks its own equality on the candidates Probe yields.
type Slots struct {
	hashes []uint64 // per entry, in Add order
	slots  []int32  // entry index + 1, or 0; len is 0 or a power of two
}

// Len returns the number of entries added.
func (s *Slots) Len() int { return len(s.hashes) }

// Add records a new entry with hash h and returns its index, which is
// the number of entries added before it.
func (s *Slots) Add(h uint64) int32 {
	s.hashes = append(s.hashes, h)
	n := len(s.hashes)
	from := n - 1
	if n*4 > len(s.slots)*3 {
		s.slots = make([]int32, max(2*len(s.slots), 16))
		from = 0
	}
	mask := uint64(len(s.slots) - 1)
	for e := from; e < n; e++ {
		i := s.hashes[e] & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(e + 1)
	}
	return int32(n - 1)
}

// Clone returns a copy that grows independently of s.
func (s *Slots) Clone() Slots {
	return Slots{hashes: append([]uint64(nil), s.hashes...), slots: append([]int32(nil), s.slots...)}
}

// Probe starts a walk over the entries whose stored hash equals h.
func (s *Slots) Probe(h uint64) Probe {
	return Probe{s: s, h: h, i: h & uint64(len(s.slots)-1)}
}

// Probe walks one hash's run of slots; the zero-allocation loop is
//
//	p := s.Probe(h)
//	for e := p.Next(); e >= 0; e = p.Next() { if equal(entries[e], key) ... }
type Probe struct {
	s    *Slots
	h, i uint64
}

// Next returns the next entry, in probe order, whose stored hash equals
// the probed one, or -1 once the run ends. On an empty table i is h
// itself, which the bound rejects.
func (p *Probe) Next() int32 {
	for p.i < uint64(len(p.s.slots)) {
		e := p.s.slots[p.i]
		if e == 0 {
			return -1
		}
		p.i = (p.i + 1) & uint64(len(p.s.slots)-1)
		if p.s.hashes[e-1] == p.h {
			return e - 1
		}
	}
	return -1
}
