package textmine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	toks := TokenizeLower(strings.ToLower("The Hemoglobin, subunit-alpha (HBA1) binds O2."))
	want := []string{"hemoglobin", "subunit", "alpha", "hba1", "binds", "o2"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizeDropsStopwordsAndSingles(t *testing.T) {
	toks := TokenizeLower("a protein of the cell")
	if len(toks) != 2 || toks[0] != "protein" || toks[1] != "cell" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestJaroWinkler(t *testing.T) {
	if jw := JaroWinkler("MARTHA", "MARHTA"); jw < 0.95 {
		t.Errorf("MARTHA/MARHTA = %v; classic value ~0.961", jw)
	}
	if jw := JaroWinkler("abc", "abc"); jw != 1 {
		t.Errorf("identical = %v", jw)
	}
	if jw := JaroWinkler("abc", "xyz"); jw != 0 {
		t.Errorf("disjoint = %v", jw)
	}
	// Prefix boost: common prefix should rank higher than common suffix.
	pre := JaroWinkler("hemoglobin", "hemoglobine")
	suf := JaroWinkler("ahemoglobin", "hemoglobin")
	if pre <= suf {
		t.Errorf("prefix boost: pre=%v suf=%v", pre, suf)
	}
}

// dice is the Dice similarity of two strings' trigram profiles.
func dice(a, b string) float64 {
	return DiceProfiles(QGramProfile(strings.ToLower(a), 3), QGramProfile(strings.ToLower(b), 3))
}

// TestQGramSimilarity: Dice over trigram profiles is 1 for equal
// strings, ranks a one-letter variant above an unrelated word, and is 0
// for two empty strings.
func TestQGramSimilarity(t *testing.T) {
	if s := dice("hemoglobin", "hemoglobin"); s != 1 {
		t.Errorf("identical = %v", s)
	}
	near := dice("hemoglobin", "hemoglobine")
	far := dice("hemoglobin", "ribosome")
	if near <= far {
		t.Errorf("near=%v far=%v", near, far)
	}
	if s := dice("", ""); s != 0 {
		t.Errorf("empty = %v", s)
	}
}

func TestLooksLikeAccession(t *testing.T) {
	yes := []string{"P12345", "ENSG00000042753", "1ABC", "GO:0005524", "Uniprot:P11140"}
	no := []string{"abc", "12345", "protein", "P1", "hello-world"}
	for _, w := range yes {
		if !LooksLikeAccession(w) {
			t.Errorf("%q should look like an accession", w)
		}
	}
	for _, w := range no {
		if LooksLikeAccession(w) {
			t.Errorf("%q should not look like an accession", w)
		}
	}
}

// Property: edit distance is a metric — symmetric, zero iff equal, and
// obeys the triangle inequality on small random strings.
// Property: JaroWinkler stays in [0,1] and equals 1 for identical strings.
func TestJaroWinklerRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		jw := JaroWinkler(a, b)
		if jw < 0 || jw > 1 {
			return false
		}
		return JaroWinkler(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// tokenizeOracle is TokenizeLower as it was before EachToken: a range
// loop over the runes, every one classified by unicode.IsLetter and
// unicode.IsDigit, and a stopword map probe per run.
func tokenizeOracle(lower string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			if tok := lower[start:end]; len(tok) >= 2 && !stopwords[tok] {
				out = append(out, tok)
			}
			start = -1
		}
	}
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(lower))
	return out
}

var tokenizeSeeds = []string{"", "a", "The Hemoglobin, subunit-alpha (HBA1) binds O2.",
	"ÄÖÜ straße ǅungla İstanbul", "bad\xffutf8 \xc3 tail", "of the and which", "x1 y22  z-333",
	"\u212a\u212aelvin İi GO:0000001 P12345.", "\xef\xbf\xbd\xef\xbf\xbdab q\u0301r 12\u0663"}

// checkEachToken fails if EachToken does not yield the oracle's tokens of
// s, or TokenizeLower does not return them.
func checkEachToken(t *testing.T, s string) {
	t.Helper()
	want := tokenizeOracle(s)
	var got []string
	EachToken(s, func(tok string) { got = append(got, tok) })
	if !slices.Equal(got, want) {
		t.Fatalf("%q: EachToken %q, oracle %q", s, got, want)
	}
	if lower := TokenizeLower(s); !slices.Equal(lower, want) || (lower == nil) != (want == nil) {
		t.Fatalf("%q: TokenizeLower %q, oracle %q", s, lower, want)
	}
}

// EachToken yields the oracle's tokens, including around multi-byte
// runes, upper case, invalid UTF-8 and stopwords, lower-cased or not.
func TestEachTokenMatchesOracle(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkEachToken(t, s)
		checkEachToken(t, strings.ToLower(s))
	}
}

// checkEachField fails if EachField does not yield strings.Fields' fields
// of s, or does not stop where fn returns false.
func checkEachField(t *testing.T, s string) {
	t.Helper()
	want := strings.Fields(s)
	var got []string
	EachField(s, func(w string) bool { got = append(got, w); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("%q: EachField %q, strings.Fields %q", s, got, want)
	}
	for stop := 1; stop <= len(want); stop++ {
		n := 0
		EachField(s, func(string) bool { n++; return n < stop })
		if n != stop {
			t.Fatalf("%q: EachField called fn %d times after it returned false at %d", s, n, stop)
		}
	}
}

// EachField splits as strings.Fields does, across ASCII and Unicode
// spaces, invalid UTF-8 and random mixes of them.
func TestEachFieldMatchesStringsFields(t *testing.T) {
	seeds := append([]string{" ", "a b", " a  b c ", "a\tb\nc\vd\fe\rf", "a b\u0085c\u00a0d",
		"a\u3000b\u2003c", "x\xffy z", "\xc2 \xa0 q", "one\u200btwo three"}, tokenizeSeeds...)
	rng := rand.New(rand.NewSource(5))
	parts := []string{"a", "bc", " ", "\t", "\u00a0", "\u3000", "\xff", "\xc2", "é", "\u0085"}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for k := rng.Intn(8); k > 0; k-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		seeds = append(seeds, b.String())
	}
	for _, s := range seeds {
		checkEachField(t, s)
	}
}

// FuzzEachToken checks EachToken against the oracle tokenizer, and
// EachField against strings.Fields, on arbitrary bytes.
func FuzzEachToken(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkEachToken(t, s)
		checkEachField(t, s)
	})
}

// EachToken over ASCII text allocates nothing.
func TestEachTokenAllocatesNothing(t *testing.T) {
	n := 0
	count := func(string) { n++ }
	if a := testing.AllocsPerRun(100, func() {
		EachToken("hemoglobin subunit alpha (hba1) binds o2 in the red cells", count)
	}); a != 0 {
		t.Errorf("EachToken: %v allocs per call", a)
	}
}

// qGrams is the oracle profile: the multiset of character q-grams of s,
// padded with q-1 '#' at both ends, as counts in a map.
func qGrams(s string, q int) map[string]int {
	out := make(map[string]int)
	if s == "" {
		return out
	}
	padded := strings.Repeat("#", q-1) + strings.ToLower(s) + strings.Repeat("#", q-1)
	for i := 0; i+q <= len(padded); i++ {
		out[padded[i:i+q]]++
	}
	return out
}

// The run-length profile gives the Dice similarity of the q-gram multisets
// qGrams builds.
func TestDiceProfilesMatchesQGrams(t *testing.T) {
	viaMaps := func(a, b string) float64 {
		ga, gb := qGrams(a, 3), qGrams(b, 3)
		size, overlap := 0, 0
		for g, ca := range ga {
			size += ca
			overlap += min(ca, gb[g])
		}
		for _, cb := range gb {
			size += cb
		}
		if size == 0 {
			return 0
		}
		return 2 * float64(overlap) / float64(size)
	}
	f := func(a, b string) bool { return dice(a, b) == viaMaps(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, p := range [][2]string{{"", ""}, {"", "acgt"}, {"ACGTACGTACGTTTGA", "acgtacctacgtttga"}, {"aaaaaaa", "aaa"}} {
		if !f(p[0], p[1]) {
			t.Errorf("%q vs %q: %v, maps give %v", p[0], p[1], dice(p[0], p[1]), viaMaps(p[0], p[1]))
		}
	}
}

// smallStrings lists every string of up to 6 letters from {a,b,c}.
func smallStrings() []string {
	var all []string
	for n, level := 0, []string{""}; n <= 6; n++ {
		all = append(all, level...)
		var next []string
		for _, s := range level {
			next = append(next, s+"a", s+"b", s+"c")
		}
		level = next
	}
	return all
}

// Jaro's greedy matching walks its first argument, yet the result does
// not depend on the argument order: a character only matches an equal
// one inside a window both sides share, so by induction on the leftmost
// unmatched occurrence of each character both walks pair the same
// positions. Duplicate detection relies on it to compare each field
// pair once. Exhaustive over every pair of strings of up to 6 letters
// from {a,b,c}.
func TestJaroWinklerSymmetric(t *testing.T) {
	all := smallStrings()
	for i, a := range all {
		for _, b := range all[i+1:] {
			if ab, ba := JaroWinkler(a, b), JaroWinkler(b, a); ab != ba {
				t.Fatalf("JaroWinkler(%q,%q)=%v but reversed %v", a, b, ab, ba)
			}
		}
	}
}

// jaroByteLoop is Jaro as every pair of strings once took it: a byte
// loop over each match window with two []bool match sets. It is the
// oracle Jaro must equal to the bit.
func jaroByteLoop(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(max(la, lb)/2-1, 0)
	aMatch := make([]bool, la)
	bMatch := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(i-window, 0); j < min(i+window+1, lb); j++ {
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
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// sameJaro fails t unless Jaro and JaroWinkler of a and b equal the
// byte loop's to the bit.
func sameJaro(t *testing.T, a, b string) {
	t.Helper()
	want := jaroByteLoop(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	wantJW := want + float64(prefix)*0.1*(1-want)
	if got, gotJW := Jaro(a, b), JaroWinkler(a, b); got != want || gotJW != wantJW {
		t.Fatalf("Jaro(%q, %q) = %v, JaroWinkler %v; the byte loop gives %v and %v", a, b, got, gotJW, want, wantJW)
	}
}

// Jaro equals the byte loop over every ordered pair of strings of up to
// 6 letters from {a,b,c}, and over random pairs of up to 70 bytes, on
// both sides of the 64-byte bit-vector cutoff: DNA, printable ASCII,
// bytes >= 0x80 and a mix, half of the pairs a few edits apart.
func TestJaroMatchesByteLoop(t *testing.T) {
	all := smallStrings()
	for _, a := range all {
		for _, b := range all {
			sameJaro(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(26))
	alphabets := []func() byte{
		func() byte { return "ACGT"[rng.Intn(4)] },
		func() byte { return byte(0x20 + rng.Intn(0x5f)) },
		func() byte { return byte(0x80 + rng.Intn(0x80)) },
		func() byte { return byte(rng.Intn(256)) },
	}
	draw := func(n int, sym func() byte) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = sym()
		}
		return s
	}
	for i := 0; i < 40000; i++ {
		sym := alphabets[i%len(alphabets)]
		a := draw(rng.Intn(71), sym)
		var b []byte
		if i%2 == 0 {
			b = draw(rng.Intn(71), sym)
		} else {
			b = append([]byte(nil), a...)
			for e := rng.Intn(4); e > 0 && len(b) > 0; e-- {
				switch k := rng.Intn(len(b)); rng.Intn(3) {
				case 0:
					b[k] = sym()
				case 1:
					b = append(b[:k], b[k+1:]...)
				default:
					b = append(b[:k], append([]byte{sym()}, b[k:]...)...)
				}
			}
		}
		sameJaro(t, string(a), string(b))
	}
}
