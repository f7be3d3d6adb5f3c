package linkdisc

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/metadata"
	"repro/internal/rel"
)

// entityForm is a source prepared for §4.4 entity links: "names of
// biological entities in natural text ... matched with unique fields of
// primary relations". It has two sides.
//
// The dictionary side holds the values of the primary relation's unique
// columns that can name an entity — at least 3 bytes, not a number (a
// surrogate key), shaped like a key (keyShaped) — one per lower-cased
// value: the last written in column-major order over the relation, a
// later column's value replacing an earlier column's.
//
// The document side holds, per primary document (textDocs), the
// document's distinct candidate keys in first-occurrence order: at each
// word position the lower-cased word stripped of entityTrim, then the
// pair of words starting there.
//
// Neither side copies a string. Both hold hashes of lower-cased text
// (hashChains) and row numbers; a hash hit is checked, and the mention's
// text recovered, by re-reading the one row or document it names.
type entityForm struct {
	names   hashChains
	nameRow []int32 // name i's row in the primary relation
	nameCol []int32 // the rank among the unique columns of the column it is in
	// Document d is row docRow[d]; its keys are items
	// docStart[d]:docStart[d+1] of keys.
	docRow   []int32
	docStart []int32
	keys     hashChains
}

// entityTrim is the punctuation a word is stripped of before matching.
const entityTrim = ".,;:()[]{}\"'"

// nameCols locates a primary relation's names: cols[rank] is the schema
// index of the rank-th unique column, -1 if the relation lacks it.
type nameCols struct {
	r    *rel.Relation
	acc  int
	cols []int
}

func nameColsOf(s *Source, r *rel.Relation) nameCols {
	nc := nameCols{r: r, acc: r.Schema.Index(s.Structure.PrimaryAccession)}
	for _, c := range s.Structure.UniqueColumns[strings.ToLower(r.Name)] {
		nc.cols = append(nc.cols, r.Schema.Index(c))
	}
	return nc
}

// name is name i's value.
func (f *entityForm) name(nc nameCols, i int32) string {
	return nc.r.Tuples[f.nameRow[i]][nc.cols[f.nameCol[i]]].AsString()
}

// entityFormOf prepares s for entity links.
func entityFormOf(s *Source) *entityForm {
	f := &entityForm{docStart: []int32{0}}
	pr := s.primary()
	if pr == nil {
		return f
	}
	if nc := nameColsOf(s, pr); nc.acc >= 0 {
		for rank, ci := range nc.cols {
			if ci < 0 {
				continue
			}
			for row := range pr.Tuples {
				f.addName(nc, row, rank)
			}
		}
	}
	if d, ok := primaryDocsOf(s); ok {
		var k keyer
		for row := range pr.Tuples {
			if keys, ok := k.doc(d, row); ok {
				f.docRow = append(f.docRow, int32(row))
				for _, key := range keys {
					f.keys.add(key.h)
				}
				f.docStart = append(f.docStart, int32(len(f.keys.prev)))
			}
		}
	}
	return f
}

// addName enters row's value in the rank-th unique column, replacing
// the name it lower-cases alike to unless that one's column ranks
// higher.
func (f *entityForm) addName(nc nameCols, row, rank int) {
	t := nc.r.Tuples[row]
	v := t[nc.cols[rank]]
	if v.IsNull() || t[nc.acc].IsNull() {
		return
	}
	name := v.AsString()
	if len(name) < 3 || !keyShaped(name) {
		return
	}
	if _, numeric := v.AsFloat(); numeric {
		return
	}
	h := fold(lowerHash(fnvOffset, name))
	for i := f.names.of(h); i >= 0; i = f.names.prev[i] {
		if lowerEqual(f.name(nc, i), name) {
			if int32(rank) >= f.nameCol[i] {
				f.nameRow[i], f.nameCol[i] = int32(row), int32(rank)
			}
			return
		}
	}
	f.names.add(h)
	f.nameRow = append(f.nameRow, int32(row))
	f.nameCol = append(f.nameCol, int32(rank))
}

// grow grows f by b, the form of a batch whose primary rows pr, s's grown
// primary relation, holds from row base on. It returns nil if either
// form is missing, unless the batch added no primary row.
func (f *entityForm) grow(b *entityForm, s *Source, pr *rel.Relation, base int) *entityForm {
	if f == nil || base == len(pr.Tuples) {
		return f
	}
	if b == nil {
		return nil
	}
	nc := nameColsOf(s, pr)
	for i, row := range b.nameRow {
		f.addName(nc, base+int(row), int(b.nameCol[i]))
	}
	for _, row := range b.docRow {
		f.docRow = append(f.docRow, int32(base)+row)
	}
	keys := int32(len(f.keys.prev))
	for _, start := range b.docStart[1:] {
		f.docStart = append(f.docStart, keys+start)
	}
	f.keys.extend(&b.keys)
	return f
}

// keyShaped reports whether name can lower-case as some document's key
// does: one word, or two joined by one space, a word holding no space
// and neither starting nor ending with entityTrim. No other name ever
// matches, so the dictionary leaves them out.
func keyShaped(name string) bool {
	a, b, pair := strings.Cut(name, " ")
	return isWord(a) && (!pair || isWord(b))
}

func isWord(w string) bool {
	return w != "" && !strings.ContainsFunc(w, unicode.IsSpace) && len(strings.Trim(w, entityTrim)) == len(w)
}

// docKey is a candidate key of a document: the word a, or the pair of
// words "a b"; h hashes it lower-cased.
type docKey struct {
	a, b string
	h    uint32
}

// text is the key as the document writes it.
func (k docKey) text() string {
	if k.b == "" {
		return k.a
	}
	return k.a + " " + k.b
}

// same reports whether k and o lower-case alike.
func (k docKey) same(o docKey) bool {
	return k.h == o.h && lowerEqual(k.a, o.a) && lowerEqual(k.b, o.b)
}

// is reports whether k lower-cases as name does. Neither word of k holds
// a space, so name's first space must split it where k's words meet.
func (k docKey) is(name string) bool {
	if k.b == "" {
		return lowerEqual(k.a, name)
	}
	i := strings.IndexByte(name, ' ')
	return i >= 0 && lowerEqual(k.a, name[:i]) && lowerEqual(k.b, name[i+1:])
}

// keyer lists documents' candidate keys, reusing its buffers.
type keyer struct {
	vals []string
	keys []docKey
	seen map[uint32]int32 // a hash's first key
}

// doc returns the distinct candidate keys of row's document in
// first-occurrence order — the order in which the words and pairs of
// strings.Fields over the document's text come — and false if the row is
// no document. Empty words and pairs with an empty word are skipped: no
// name is empty or has a leading or trailing space.
func (k *keyer) doc(d primaryDocs, row int) ([]docKey, bool) {
	var ok bool
	if k.vals, ok = d.values(k.vals[:0], row); !ok {
		return nil, false
	}
	if k.seen == nil {
		k.seen = make(map[uint32]int32)
	}
	clear(k.seen)
	k.keys = k.keys[:0]
	prev := ""
	fields(k.vals, func(w string) {
		w = strings.Trim(w, entityTrim)
		if prev != "" && w != "" {
			k.add(prev, w)
		}
		if w != "" {
			k.add(w, "")
		}
		prev = w
	})
	return k.keys, true
}

// add appends the key a (b == "") or "a b" unless the document has it.
func (k *keyer) add(a, b string) {
	h := lowerHash(fnvOffset, a)
	if b != "" {
		h = lowerHash(lowerHash(h, " "), b)
	}
	key := docKey{a: a, b: b, h: fold(h)}
	if i, ok := k.seen[key.h]; !ok {
		k.seen[key.h] = int32(len(k.keys))
	} else {
		for _, o := range k.keys[i:] {
			if o.same(key) {
				return
			}
		}
	}
	k.keys = append(k.keys, key)
}

// fields calls fn with each field of vals' join with " ", as
// strings.Fields splits it.
func fields(vals []string, fn func(string)) {
	for _, v := range vals {
		start := -1
		for i := 0; i < len(v); {
			r, n := rune(v[i]), 1
			if r >= utf8.RuneSelf {
				r, n = utf8.DecodeRuneInString(v[i:])
			}
			if !unicode.IsSpace(r) {
				if start < 0 {
					start = i
				}
			} else if start >= 0 {
				fn(v[start:i])
				start = -1
			}
			i += n
		}
		if start >= 0 {
			fn(v[start:])
		}
	}
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// lowerHash adds s, lower-cased rune by rune as strings.ToLower does, to
// the running FNV-1a hash h.
func lowerHash(h uint64, s string) uint64 {
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
			r = unicode.ToLower(r)
		} else if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		h = (h ^ uint64(r)) * fnvPrime
		i += n
	}
	return h
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b)
// without building either: it maps rune by rune, an invalid byte to
// utf8.RuneError.
func lowerEqual(a, b string) bool {
	for a != "" && b != "" {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == "" && b == ""
}

// entityHit is a candidate key of a `from` document, by its item in the
// form's keys, whose hash names a `to` name.
type entityHit struct {
	key int32
	h   uint32
}

// discoverEntityLinks links `from`'s documents to the `to` objects their
// candidate keys name, per document in key order, once per object pair,
// skipping a document's own accession. Both sources' entity forms are
// built. It probes whichever side is smaller — `from`'s keys against
// `to`'s names, or `to`'s names against `from`'s key index — then sorts
// the hits into document order and checks each against its document. A
// canceled ctx stops it at the next document.
func (e *Engine) discoverEntityLinks(ctx context.Context, from, to *Source) ([]metadata.Link, error) {
	f, t := from.forms.entity, to.forms.entity
	if len(f.docRow) == 0 || len(t.nameRow) == 0 {
		return nil, nil
	}
	var hits []entityHit
	if len(t.names.last) < len(f.keys.last) {
		for h := range t.names.last {
			for i := f.keys.of(h); i >= 0; i = f.keys.prev[i] {
				hits = append(hits, entityHit{i, h})
			}
		}
	} else {
		for h, i := range f.keys.last {
			if t.names.of(h) < 0 {
				continue
			}
			for ; i >= 0; i = f.keys.prev[i] {
				hits = append(hits, entityHit{i, h})
			}
		}
	}
	slices.SortFunc(hits, func(a, b entityHit) int { return cmp.Compare(a.key, b.key) })

	docs, _ := primaryDocsOf(from)
	names := nameColsOf(to, to.primary())
	var k keyer
	var keys []docKey
	var docAcc string
	var out []metadata.Link
	seen := make(map[[2]string]bool)
	d, loaded := 0, -1
	for _, hit := range hits {
		for hit.key >= f.docStart[d+1] {
			d++
		}
		if d != loaded {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			row := int(f.docRow[d])
			keys, _ = k.doc(docs, row)
			docAcc = docs.r.Tuples[row][docs.acc].AsString()
			loaded = d
		}
		key := keys[hit.key-f.docStart[d]]
		for i := t.names.of(hit.h); i >= 0; i = t.names.prev[i] {
			if !key.is(t.name(names, i)) {
				continue
			}
			acc := names.r.Tuples[t.nameRow[i]][names.acc].AsString()
			if pair := [2]string{docAcc, acc}; acc != docAcc && !seen[pair] {
				seen[pair] = true
				out = append(out, metadata.Link{
					Type:       metadata.LinkText,
					From:       primaryRef(from, docAcc),
					To:         primaryRef(to, acc),
					Confidence: 0.9,
					Method:     "entity:" + key.text(),
				})
			}
			break
		}
	}
	return out, nil
}
