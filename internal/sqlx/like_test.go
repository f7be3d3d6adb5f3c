package sqlx

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/rel"
)

// likeOracle is the matcher LIKE had before likeMatcher, kept as its
// exact oracle: recursive backtracking over the lowered row and pattern,
// O(n^k) for k '%' signs.
func likeOracle(s, p string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(p))
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// allStrings returns every string of at most maxLen symbols from alphabet.
func allStrings(alphabet []string, maxLen int) []string {
	out := []string{""}
	for prev := out; maxLen > 0; maxLen-- {
		var next []string
		for _, s := range prev {
			for _, a := range alphabet {
				next = append(next, s+a)
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

func checkLikeAgainstOracle(t *testing.T, rows, patterns []string) {
	t.Helper()
	for _, p := range patterns {
		m := compileLike(p)
		for _, s := range rows {
			if got, want := m.match(s), likeOracle(s, p); got != want {
				t.Fatalf("%q LIKE %q = %v, oracle %v", s, p, got, want)
			}
		}
	}
}

// TestLikeMatchesOracle holds the compiled matcher to the oracle:
// exhaustively, every row of length <= 7 over {a, B, K} (K the Kelvin
// sign) against every pattern of length <= 5 over {A, b, %, _}; every row
// of length <= 4 over aAbB%_ plus the Kelvin sign, İ and é against every
// pattern of length <= 3 over the same without A and b; then random rows
// and patterns whose segments pass Shift-And's 64-byte word.
func TestLikeMatchesOracle(t *testing.T) {
	checkLikeAgainstOracle(t, allStrings([]string{"a", "B", "\u212a"}, 7),
		allStrings([]string{"A", "b", "%", "_"}, 5))
	checkLikeAgainstOracle(t, allStrings([]string{"a", "A", "b", "B", "%", "_", "\u212a", "İ", "é"}, 4),
		allStrings([]string{"a", "B", "%", "_", "\u212a", "İ", "é"}, 3))

	// Mostly 'a', so segments longer than 64 bytes often match a row on
	// their first 64 and fail or pass on the rest.
	rng := rand.New(rand.NewSource(1))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "aaaaaaaaaaaaaaaaaaaaaaaAb_"[rng.Intn(26)] // '_' is a literal in rows
		}
		return string(b)
	}
	for i := 0; i < 1000; i++ {
		var p strings.Builder
		for k := rng.Intn(3); k >= 0; k-- {
			if rng.Intn(3) > 0 {
				p.WriteByte('%')
			}
			p.WriteString(word(rng.Intn(100)))
		}
		if rng.Intn(2) == 0 {
			p.WriteByte('%')
		}
		checkLikeAgainstOracle(t, []string{word(rng.Intn(300))}, []string{p.String()})
	}
}

// FuzzLike checks the compiled matcher against the oracle on arbitrary
// bytes. The oracle costs O(n^k) for k '%' signs, so inputs it would take
// seconds on are skipped.
func FuzzLike(f *testing.F) {
	for _, c := range [][2]string{
		{"ACGTACGTA", "%cgta%"},
		{"Kelvin \u212a", "%k"},
		{"İstanbul", "___stanbul"},
		{"café", "caf_"},
		{"a%b_c", "a_b%c"},
		{strings.Repeat("ab", 50), "%" + strings.Repeat("ab", 35) + "%"},
		{"\xff\xfeA", "_a"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 128 || strings.Count(p, "%") > 4 {
			t.Skip()
		}
		if got, want := compileLike(p).match(s), likeOracle(s, p); got != want {
			t.Fatalf("%q LIKE %q = %v, oracle %v", s, p, got, want)
		}
	})
}

// TestLikeBoundedTime: a pattern the backtracking matcher took seconds
// on against an 80-byte row returns at once against a 1 MB row.
func TestLikeBoundedTime(t *testing.T) {
	row := strings.Repeat("a", 1<<20)
	for _, p := range []string{"%a%a%a%a%a%b", "%a%a%a%a%a%b%", "%a_a%a%_a%a%b_%"} {
		m := compileLike(p)
		start := time.Now()
		if m.match(row) {
			t.Errorf("%q matched a row of a", p)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q took %v over 1 MB", p, d)
		}
	}
}

// TestLikeHonorsCancel: a scan whose LIKE pattern the backtracking
// matcher never finished a row of stops when its context is canceled, here
// by a deadline that passes mid-scan (the whole scan takes about a second).
func TestLikeHonorsCancel(t *testing.T) {
	db := rel.NewDatabase("t")
	r := db.Create("long", rel.NewSchema(rel.Column{Name: "seq", Kind: rel.KindString}))
	row := rel.Str(strings.Repeat("a", 16<<10)) // rows share the bytes
	for i := 0; i < 64*morselSize; i++ {
		r.Append(rel.Tuple{row})
	}
	plan, err := Prepare(db, `SELECT COUNT(*) FROM long WHERE seq LIKE '%a%a%a%a%a%b%'`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		c, err := plan.OpenParallel(ctx, db, 1)
		if err == nil {
			defer c.Close()
			for err == nil {
				_, err = c.Next(ctx)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want the context's error (EOF: the scan ended before the deadline)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the query ignored its canceled context for 10 s")
	}
}
