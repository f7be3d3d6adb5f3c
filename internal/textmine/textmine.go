// Package textmine provides the text-mining substrate for ALADIN's
// implicit link discovery (§4.4): tokenization of textual annotation
// fields (link discovery weighs the tokens into TF-IDF vectors), classic
// string-distance measures for duplicate detection (§4.5), and the
// accession shape of a token. Entity names are matched against the
// unique fields of primary relations by link discovery's entity form.
package textmine

import (
	"math/bits"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords are high-frequency English words excluded from token vectors.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true,
	"have": true, "in": true, "is": true, "it": true, "its": true,
	"of": true, "on": true, "or": true, "that": true, "the": true,
	"this": true, "to": true, "was": true, "which": true, "with": true,
}

// TokenizeLower splits an already lower-cased string into alphanumeric
// tokens, dropping stopwords and single characters. The tokens are
// substrings of lower and keep it alive.
func TokenizeLower(lower string) []string {
	var out []string
	EachToken(lower, func(tok string) { out = append(out, tok) })
	return out
}

// EachToken calls fn with each of TokenizeLower's tokens of lower, in
// order, allocating nothing: a token is a maximal run of letters and
// digits, kept if it is at least 2 bytes long and not a stopword. ASCII
// is classified by range; only a rune >= 0x80 asks package unicode (an
// invalid byte decodes as U+FFFD, a separator).
func EachToken(lower string, fn func(tok string)) {
	start := -1
	for i, r := range lower {
		word := 'a' <= r && r <= 'z' || '0' <= r && r <= '9' || 'A' <= r && r <= 'Z' ||
			r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r))
		if word && start < 0 {
			start = i
		} else if !word && start >= 0 {
			emitToken(lower[start:i], fn)
			start = -1
		}
	}
	if start >= 0 {
		emitToken(lower[start:], fn)
	}
}

// emitToken passes tok to fn unless it is a single byte or a stopword
// (every stopword is at most 5 bytes long).
func emitToken(tok string, fn func(string)) {
	if len(tok) >= 2 && (len(tok) > 5 || !stopwords[tok]) {
		fn(tok)
	}
}

// EachField calls fn with each of strings.Fields' fields of s, in order,
// until fn returns false: the maximal runs of runes that are not
// unicode.IsSpace (an invalid byte is not a space). It builds no slice.
func EachField(s string, fn func(field string) bool) {
	start := -1
	for i, r := range s {
		if space := unicode.IsSpace(r); !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			if !fn(s[start:i]) {
				return
			}
			start = -1
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// Jaro computes the Jaro similarity of two strings. Strings of up to 64
// bytes are matched bit-parallel (jaroBits); longer ones by a byte loop
// over each match window.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(max(la, lb)/2-1, 0)
	if la <= 64 && lb <= 64 {
		return jaroBits(a, b, window)
	}
	aMatch := make([]bool, la)
	bMatch := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || a[i] != b[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	return jaroOf(matches, trans, la, lb)
}

// jaroOf is the Jaro similarity of strings of la and lb bytes with the
// given matches and transpositions.
func jaroOf(matches, trans, la, lb int) float64 {
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// jaroBits is Jaro over strings of at most 64 bytes with the match sets
// as bit vectors (the bit-vector idea of Myers, JACM 1999): pos[c] marks
// the positions of byte c in b, so a[i]'s match — the first unmatched
// equal byte of b inside its window, as the byte loop picks it — is the
// lowest set bit of pos[a[i]] &^ bm within the window. The k-th matched
// position of a pairs with the k-th of b for the transposition count.
func jaroBits(a, b string, window int) float64 {
	var pos [256]uint64
	for j := 0; j < len(b); j++ {
		pos[b[j]] |= 1 << j
	}
	var am, bm uint64
	matches := 0
	for i := 0; i < len(a); i++ {
		lo, hi := max(i-window, 0), min(i+window+1, len(b))
		if lo >= hi {
			break
		}
		// Bits lo..hi-1; a shift by 64 is 0 in Go, so hi == 64 works.
		win := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1)
		if m := pos[a[i]] &^ bm & win; m != 0 {
			bm |= m & -m
			am |= 1 << i
			matches++
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	for ; am != 0; am, bm = am&(am-1), bm&(bm-1) {
		if a[bits.TrailingZeros64(am)] != b[bits.TrailingZeros64(bm)] {
			trans++
		}
	}
	return jaroOf(matches, trans, len(a), len(b))
}

// JaroWinkler boosts Jaro similarity for shared prefixes (up to 4 chars,
// scaling factor 0.1), the standard variant used in duplicate detection.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// GramRun is one distinct q-gram of a value (its q <= 4 bytes packed
// big-endian) and how often it occurs.
type GramRun struct {
	Code, Count uint32
}

// QGramProfile is the multiset of character q-grams of an already
// lower-cased string, padded with q-1 '#' at both ends, as runs sorted by
// code: what a caller comparing one value many times holds and hands to
// DiceProfiles. A value over a small alphabet has few runs however long
// it is — at most 68 for DNA trigrams.
func QGramProfile(lower string, q int) []GramRun {
	if lower == "" {
		return nil
	}
	pad := strings.Repeat("#", q-1)
	padded := pad + lower + pad
	codes := make([]uint32, len(padded)-q+1)
	for i := range codes {
		var c uint32
		for j := 0; j < q; j++ {
			c = c<<8 | uint32(padded[i+j])
		}
		codes[i] = c
	}
	slices.Sort(codes)
	runs := 0
	for i, c := range codes {
		if i == 0 || c != codes[i-1] {
			runs++
		}
	}
	out := make([]GramRun, 0, runs)
	for i, c := range codes {
		if i == 0 || c != codes[i-1] {
			out = append(out, GramRun{Code: c})
		}
		out[len(out)-1].Count++
	}
	return out
}

// DiceProfiles is Dice similarity over two profiles from QGramProfile:
// twice the multiset overlap over the two sizes, by one merge.
func DiceProfiles(a, b []GramRun) float64 {
	var size, overlap uint32
	for _, r := range a {
		size += r.Count
	}
	for _, r := range b {
		size += r.Count
	}
	if size == 0 {
		return 0
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		ra, rb := a[i], b[j]
		if ra.Code == rb.Code {
			overlap += min(ra.Count, rb.Count)
		}
		if ra.Code <= rb.Code {
			i++
		}
		if rb.Code <= ra.Code {
			j++
		}
	}
	return 2 * float64(overlap) / float64(size)
}

// LooksLikeAccession applies the §4.2 accession shape to a single token:
// length >= 4, contains both a letter and a digit, no lowercase run
// longer than the typical accession mixes.
func LooksLikeAccession(w string) bool {
	if len(w) < 4 || len(w) > 20 {
		return false
	}
	hasLetter, hasDigit := false, false
	for _, r := range w {
		switch {
		case unicode.IsDigit(r):
			hasDigit = true
		case unicode.IsLetter(r):
			hasLetter = true
		case r == '_' || r == ':' || r == '.' || r == '-':
			// common inside composite identifiers
		default:
			return false
		}
	}
	return hasLetter && hasDigit
}
