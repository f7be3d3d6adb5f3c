package sqlx

import "strings"

// likeMatcher is a LIKE pattern compiled once, by the expression
// compiler, when the pattern is constant (a literal, or folds to one),
// and per row otherwise. LIKE is case-insensitive (common life-science
// database practice): a row matches when strings.ToLower of the row
// matches strings.ToLower of the pattern, where '%' stands for any run of
// bytes and '_' for exactly one byte.
//
// Compiling lowers the pattern and splits it on '%' into segments of
// literal bytes and '_'. A match is greedy and leftmost-first, segment by
// segment: the first segment is anchored at the start unless the pattern
// begins with '%', the last at the end unless it ends with '%', and each
// segment between is found in one pass by bit-parallel Shift-Or over a
// 256-entry table that folds ASCII case (Baeza-Yates and Gonnet, "A New
// Approach to Text Searching", CACM 1992). Segments have fixed lengths,
// so the leftmost occurrence of one leaves the most room for those after
// it, and each search starts where the last one ended: a match is linear
// in the row's length. Matching allocates nothing unless the row holds a
// byte >= 0x80: Unicode lower-casing can change bytes and lengths (the
// Kelvin sign lowers to ASCII k, İ to three bytes), so such a row is
// lowered and matched again. A compiled matcher is never written again,
// so cached plans share it.
type likeMatcher struct {
	head, tail likeSegment   // anchored at the start and at the end
	mid        []likeSegment // found in order between them
	exact      bool          // no '%': head is the whole pattern
	minLen     int           // bytes the segments need
}

// likeSegment is a run of lowered pattern bytes between two '%'.
type likeSegment struct {
	pat string
	// masks is the Shift-Or table of a middle segment: bit j of
	// masks[c] is clear when byte c matches pat[j], for its first 64 bytes.
	masks *[256]uint64
}

// lowerASCII folds ASCII upper case; every other byte maps to itself.
var lowerASCII = func() (t [256]byte) {
	for c := range t {
		t[c] = byte(c)
		if 'A' <= c && c <= 'Z' {
			t[c] += 'a' - 'A'
		}
	}
	return t
}()

// compileLike lowers pattern and splits it into segments on '%'.
func compileLike(pattern string) *likeMatcher {
	parts := strings.Split(strings.ToLower(pattern), "%")
	m := &likeMatcher{head: likeSegment{pat: parts[0]}, minLen: len(parts[0])}
	if len(parts) == 1 {
		m.exact = true
		return m
	}
	m.tail = likeSegment{pat: parts[len(parts)-1]}
	m.minLen += len(m.tail.pat)
	for _, p := range parts[1 : len(parts)-1] {
		if p == "" {
			continue
		}
		seg := likeSegment{pat: p, masks: new([256]uint64)}
		for c := range seg.masks {
			seg.masks[c] = ^uint64(0)
			for j := 0; j < len(p) && j < 64; j++ {
				if p[j] == '_' || lowerASCII[c] == p[j] {
					seg.masks[c] &^= 1 << j
				}
			}
		}
		m.mid = append(m.mid, seg)
		m.minLen += len(p)
	}
	return m
}

// match reports whether s matches the pattern. The first pass folds
// ASCII case only and ORs every byte of s, those its scan reads and then
// the rest, so an ASCII row is read once. Any other row is lowered and
// matched again (three '_' match the Kelvin sign's 3 bytes, not its 'k').
func (m *likeMatcher) match(s string) bool {
	ok, high := m.matchFolded(s)
	if high >= 0x80 {
		ok, _ = m.matchFolded(strings.ToLower(s))
	}
	return ok
}

// matchFolded matches s folding ASCII case only, and returns the OR of
// all of s's bytes beside the verdict.
func (m *likeMatcher) matchFolded(s string) (bool, byte) {
	end := len(s) - len(m.tail.pat)
	if len(s) < m.minLen || m.exact || !m.head.at(s, 0, 0) || !m.tail.at(s, end, 0) {
		return m.exact && len(s) == len(m.head.pat) && m.head.at(s, 0, 0), orBytes(s)
	}
	high := orBytes(s[:len(m.head.pat)]) | orBytes(s[end:])
	pos := len(m.head.pat)
	for i := range m.mid {
		j, read, h := m.mid[i].find(s[pos:end])
		high |= h
		if j < 0 {
			return false, high | orBytes(s[pos+read:end])
		}
		next := pos + j + len(m.mid[i].pat)
		high |= orBytes(s[pos+read : next])
		pos = next
	}
	return true, high | orBytes(s[pos:end])
}

// orBytes returns the OR of s's bytes.
func orBytes(s string) byte {
	var b byte
	for i := 0; i < len(s); i++ {
		b |= s[i]
	}
	return b
}

// at reports whether the segment, from its byte from on, matches s at
// offset off; s holds at least off+len(pat) bytes.
func (g *likeSegment) at(s string, off, from int) bool {
	for j := from; j < len(g.pat); j++ {
		if c := g.pat[j]; c != '_' && lowerASCII[s[off+j]] != c {
			return false
		}
	}
	return true
}

// find returns the offset of the segment's leftmost occurrence in s, or
// -1, with how many bytes of s it read and their OR. Shift-Or, the
// complemented Shift-And, tracks every partial match of the first 64
// bytes in one word (a clear bit j: pat[:j+1] ends here); a longer
// segment verifies the rest at each hit.
func (g *likeSegment) find(s string) (at, read int, high byte) {
	n := min(len(g.pat), 64)
	hit := uint64(1) << (n - 1)
	masks := g.masks
	d := ^uint64(0)
	for i := 0; i < len(s); i++ {
		high |= s[i]
		d = d<<1 | masks[s[i]]
		if d&hit != 0 {
			continue
		}
		start := i - n + 1
		if start+len(g.pat) > len(s) {
			return -1, i + 1, high
		}
		if g.at(s, start, n) {
			return start, i + 1, high
		}
	}
	return -1, len(s), high
}
