package linkdisc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/textmine"
)

// The oracles below are the entity and cross-reference channels as they
// were before either kept any state between calls (commit 17f6269): the
// entity channel built its dictionary from the target's unique columns
// and ran a dictionary-and-pattern recognizer over every document of the
// source; the xref channel scanned every candidate attribute's distinct
// values and the target's accessions per call. Every entity link, xref
// attribute and xref link must equal theirs.

// oracleRecognizer is the recognizer the entity channel ran.
type oracleRecognizer struct{ dict map[string]bool }

func newOracleRecognizer(names []string) *oracleRecognizer {
	d := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if n != "" {
			d[n] = true
		}
	}
	return &oracleRecognizer{dict: d}
}

type oracleMention struct{ text, source string }

// extract returns the entity mentions found in text, deduplicated,
// dictionary hits first.
func (er *oracleRecognizer) extract(text string) []oracleMention {
	seen := make(map[string]bool)
	var out []oracleMention
	raw := strings.Fields(text)
	clean := make([]string, len(raw))
	for i, w := range raw {
		clean[i] = strings.Trim(w, ".,;:()[]{}\"'")
	}
	add := func(text, source string) {
		key := strings.ToLower(text)
		if key == "" || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, oracleMention{text, source})
	}
	for i, w := range clean {
		if er.dict[strings.ToLower(w)] {
			add(w, "dict")
		}
		if i+1 < len(clean) {
			two := w + " " + clean[i+1]
			if er.dict[strings.ToLower(two)] {
				add(two, "dict")
			}
		}
	}
	for _, w := range clean {
		if seen[strings.ToLower(w)] {
			continue
		}
		if textmine.LooksLikeAccession(w) || oracleGeneSymbol(w) {
			add(w, "pattern")
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].source != out[j].source {
			return out[i].source == "dict"
		}
		return false
	})
	return out
}

// oracleGeneSymbol matches short all-caps symbols like "BRCA1".
func oracleGeneSymbol(w string) bool {
	if len(w) < 2 || len(w) > 10 {
		return false
	}
	upper := 0
	for _, r := range w {
		switch {
		case unicode.IsUpper(r):
			upper++
		case unicode.IsDigit(r):
		default:
			return false
		}
	}
	return upper >= 2
}

// oracleEntityLinks are the entity links from `from`'s documents to
// `to`'s primary objects.
func oracleEntityLinks(from, to *Source) []metadata.Link {
	if to.Structure.Primary == "" {
		return nil
	}
	toRel := to.DB.Relation(to.Structure.Primary)
	if toRel == nil {
		return nil
	}
	accIdx := toRel.Schema.Index(to.Structure.PrimaryAccession)
	if accIdx < 0 {
		return nil
	}
	nameToAcc := make(map[string]string)
	for _, colName := range to.Structure.UniqueColumns[strings.ToLower(toRel.Name)] {
		ci := toRel.Schema.Index(colName)
		if ci < 0 {
			continue
		}
		for _, t := range toRel.Tuples {
			v, acc := t[ci], t[accIdx]
			if v.IsNull() || acc.IsNull() {
				continue
			}
			s := v.AsString()
			if len(s) < 3 {
				continue
			}
			if _, numeric := v.AsFloat(); numeric {
				continue
			}
			nameToAcc[strings.ToLower(s)] = acc.AsString()
		}
	}
	if len(nameToAcc) == 0 {
		return nil
	}
	dict := make([]string, 0, len(nameToAcc))
	for n := range nameToAcc {
		dict = append(dict, n)
	}
	er := newOracleRecognizer(dict)
	var out []metadata.Link
	seen := make(map[string]bool)
	for _, d := range textDocs(from) {
		for _, m := range er.extract(d.text) {
			acc, ok := nameToAcc[strings.ToLower(m.text)]
			if !ok || acc == d.accession {
				continue
			}
			k := d.accession + "\x00" + acc
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, metadata.Link{
				Type:       metadata.LinkText,
				From:       primaryRef(from, d.accession),
				To:         primaryRef(to, acc),
				Confidence: 0.9,
				Method:     fmt.Sprintf("entity:%s", m.text),
			})
		}
	}
	return out
}

// oracleAccessionSet is the target side of the xref channel: the
// accessions the primary accession's profile recorded, or else those of
// the relation.
func oracleAccessionSet(s *Source) map[string]bool {
	out := make(map[string]bool)
	if s.Structure.Primary == "" {
		return out
	}
	p := s.Profiles[profile.Key(s.Structure.Primary, s.Structure.PrimaryAccession)]
	if p != nil && p.DistinctValues != nil {
		for _, v := range p.DistinctValues {
			out[v.AsString()] = true
		}
		return out
	}
	pr := s.DB.Relation(s.Structure.Primary)
	if pr == nil {
		return out
	}
	vals, err := pr.DistinctValues(s.Structure.PrimaryAccession)
	if err != nil {
		return out
	}
	for _, v := range vals {
		out[v.AsString()] = true
	}
	return out
}

// oracleMatchFraction is the fraction and count of distinct values of
// r.col that resolve, directly or through a composite part, to target
// accessions, and whether composite parts resolve more of them.
func oracleMatchFraction(r *rel.Relation, col string, targetAcc map[string]bool) (float64, int, bool) {
	vals, err := r.DistinctValues(col)
	if err != nil || len(vals) == 0 {
		return 0, 0, false
	}
	direct, viaComposite := 0, 0
	for _, v := range vals {
		s := v.AsString()
		if targetAcc[s] {
			direct++
			continue
		}
		for _, part := range CompositeParts(s)[1:] {
			if targetAcc[part] {
				viaComposite++
				break
			}
		}
	}
	frac := float64(direct+viaComposite) / float64(len(vals))
	return frac, direct + viaComposite, viaComposite > direct
}

// oracleXRefs are the cross-reference attributes and links from `from`
// to `to` under opts.
func oracleXRefs(opts Options, from, to *Source) ([]metadata.Link, []XRefAttribute) {
	if to.Structure.Primary == "" || from.Structure.Primary == "" {
		return nil, nil
	}
	targetAcc := oracleAccessionSet(to)
	if len(targetAcc) == 0 {
		return nil, nil
	}
	var links []metadata.Link
	var xattrs []XRefAttribute
	for _, r := range from.DB.Relations() {
		for ci, c := range r.Schema.Columns {
			p := from.Profiles[profile.Key(r.Name, c.Name)]
			if p == nil {
				continue
			}
			if !opts.DisablePruning && (p.PurelyNumeric || p.Distinct < 2 || p.IsSequenceField() || p.IsTextField()) {
				continue
			}
			frac, matched, composite := oracleMatchFraction(r, c.Name, targetAcc)
			if frac < minXRefMatchFrac || matched < minXRefMatchCount {
				continue
			}
			xattrs = append(xattrs, XRefAttribute{
				FromSource: from.DB.Name, FromRelation: r.Name, FromColumn: c.Name,
				ToSource: to.DB.Name, MatchFrac: frac, Composite: composite,
			})
			seen := make(map[string]bool)
			for ti, t := range r.Tuples {
				if t[ci].IsNull() {
					continue
				}
				var acc string
				for _, part := range CompositeParts(t[ci].AsString()) {
					if targetAcc[part] {
						acc = part
						break
					}
				}
				if acc == "" {
					continue
				}
				for _, owner := range from.Owners().Of(r.Name, ti) {
					if k := owner + "\x00" + acc; !seen[k] {
						seen[k] = true
						links = append(links, metadata.Link{
							Type: metadata.LinkXRef, From: primaryRef(from, owner), To: primaryRef(to, acc),
							Confidence: frac, Method: fmt.Sprintf("xref:%s.%s", r.Name, c.Name),
						})
					}
				}
			}
		}
	}
	return links, xattrs
}

// discovered is what the oracles cover of one discovery call: its xref
// attributes, xref links and entity links, each in emitted order.
type discovered struct {
	xattrs        []XRefAttribute
	xrefs, entity []metadata.Link
}

// observed keeps what the oracles cover of a call's output.
func observed(links []metadata.Link, xattrs []XRefAttribute) discovered {
	d := discovered{xattrs: xattrs}
	for _, l := range links {
		switch {
		case l.Type == metadata.LinkXRef:
			d.xrefs = append(d.xrefs, l)
		case strings.HasPrefix(l.Method, "entity:"):
			d.entity = append(d.entity, l)
		}
	}
	return d
}

// oracleDiscover is what the oracles give for a call on e: discovering nu
// against every registered source of another name, both directions per
// source (DiscoverAgainst, DiscoverAppended), or every ordered pair of
// registered sources when nu is nil (DiscoverAll).
func oracleDiscover(e *Engine, nu *Source) discovered {
	var d discovered
	pair := func(from, to *Source) {
		ls, xs := oracleXRefs(e.opts, from, to)
		d.xrefs = append(d.xrefs, ls...)
		d.xattrs = append(d.xattrs, xs...)
		if !e.opts.DisableEntityLinks {
			d.entity = append(d.entity, oracleEntityLinks(from, to)...)
		}
	}
	for _, a := range e.sources {
		if nu == nil {
			for _, b := range e.sources {
				if a != b {
					pair(a, b)
				}
			}
		} else if !strings.EqualFold(a.Name(), nu.Name()) {
			pair(nu, a)
			pair(a, nu)
		}
	}
	return d
}

// sameDiscovered fails t unless got equals want field by field, match
// fractions and confidences to the bit.
func sameDiscovered(t *testing.T, call string, got, want discovered) {
	t.Helper()
	if len(got.xattrs) != len(want.xattrs) {
		t.Fatalf("%s: xref attributes\n got  %+v\n want %+v", call, got.xattrs, want.xattrs)
	}
	for i := range got.xattrs {
		if got.xattrs[i] != want.xattrs[i] {
			t.Fatalf("%s: xref attribute %d\n got  %+v\n want %+v", call, i, got.xattrs[i], want.xattrs[i])
		}
	}
	for _, ls := range [][2][]metadata.Link{{got.xrefs, want.xrefs}, {got.entity, want.entity}} {
		if len(ls[0]) != len(ls[1]) {
			t.Fatalf("%s: %d links, the oracle gives %d\n got  %v\n want %v", call, len(ls[0]), len(ls[1]), ls[0], ls[1])
		}
		for i := range ls[0] {
			if ls[0][i] != ls[1][i] {
				t.Fatalf("%s: link %d\n got  %+v\n want %+v", call, i, ls[0][i], ls[1][i])
			}
		}
	}
}

// oracleWords are the words random names and notes draw from: mixed
// case, non-ASCII (é, İ, the Kelvin sign), an invalid UTF-8 byte,
// numbers, 2-byte words and accession-shaped ones.
var oracleWords = []string{"alpha", "Alpha", "ALPHA", "beta", "Kinase", "kinase", "zinc", "Finger",
	"ATP", "p53", "Hb", "ab", "12345", "3.5", "1e3", "Éclair", "éclair", "İnsulin", "Kelvin",
	"ba\xffd", "TP53", "BRCA1", "receptor", "domain", "binding", "of", "the", "x"}

// oracleWraps wrap a mention in text: the punctuation the recognizer
// trims, and some it does not.
var oracleWraps = [][2]string{{"", ""}, {"(", ")"}, {"\"", "\","}, {"[", "];"}, {"'", "'."}, {"{", "}:"},
	{"", "-like"}, {"<", ">"}}

// randomName draws a name of one to three words joined by one or two
// spaces, sometimes with a leading or trailing space.
func randomName(rng *rand.Rand) string {
	words := make([]string, 1+rng.Intn(3))
	for i := range words {
		words[i] = oracleWords[rng.Intn(len(oracleWords))]
	}
	sep := " "
	if rng.Intn(8) == 0 {
		sep = "  "
	}
	name := strings.Join(words, sep)
	switch rng.Intn(12) {
	case 0:
		name = " " + name
	case 1:
		name += " "
	}
	return name
}

// recase returns s upper-cased, lower-cased or as it is.
func recase(rng *rand.Rand, s string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.ToUpper(s)
	case 1:
		return strings.ToLower(s)
	}
	return s
}

// randomSource builds a source of n entries — relation entry (entry_id,
// acc, name, alias, note), names and aliases unique, and relation xref
// (xref_id, entry_id, target), two per entry — whose notes mention names
// of mention and accessions of refs and whose targets reference refs
// directly, through composite parts, or not at all. It is profiled under
// popts.
func randomSource(t *testing.T, rng *rand.Rand, popts profile.Options, name, prefix string, n int, mention, refs []string) *Source {
	db := rel.NewDatabase(name)
	entry := db.Create("entry", rel.TextSchema("entry_id", "acc", "name", "alias", "note"))
	xref := db.Create("xref", rel.TextSchema("xref_id", "entry_id", "target"))
	used := make(map[string]bool)
	unique := func() string {
		for {
			if s := randomName(rng); !used[s] && strings.TrimSpace(s) != "" {
				used[s] = true
				return s
			}
		}
	}
	pick := func(from []string) string {
		if len(from) == 0 {
			return oracleWords[rng.Intn(len(oracleWords))]
		}
		return from[rng.Intn(len(from))]
	}
	for i := 0; i < n; i++ {
		acc := fmt.Sprintf("%s%04d", prefix, i)
		var words []string
		for w := 4 + rng.Intn(9); w > 0; w-- {
			switch rng.Intn(6) {
			case 0, 1:
				wrap := oracleWraps[rng.Intn(len(oracleWraps))]
				words = append(words, wrap[0]+recase(rng, strings.TrimSpace(pick(mention)))+wrap[1])
			case 2:
				words = append(words, []string{acc, pick(refs), "\t", "  "}[rng.Intn(4)])
			default:
				words = append(words, oracleWords[rng.Intn(len(oracleWords))])
			}
		}
		entry.AppendRaw(fmt.Sprint(i+1), acc, unique(), unique(), strings.Join(words, " "))
		for k := 0; k < 2; k++ {
			target := pick(refs)
			switch rng.Intn(9) {
			case 0:
				target = "UniProt:" + target
			case 1:
				target = "x|" + target
			case 2:
				target = "db / " + target
			case 3:
				target = fmt.Sprintf("ZZ%05d", rng.Intn(40))
			case 4:
				target = []string{"1000", "1e3", "1000.0", "7", "1000000", "1e6"}[rng.Intn(6)]
			case 5:
				target = ""
			}
			xref.AppendRaw(fmt.Sprint(2*i+k+1), fmt.Sprint(i+1), target)
		}
	}
	return profiledSource(t, db, popts)
}

// namesOf lists the names and aliases of a randomSource.
func namesOf(s *Source) []string {
	var out []string
	for _, tu := range s.DB.Relation("entry").Tuples {
		out = append(out, tu[2].AsString(), tu[3].AsString())
	}
	return out
}

// randomCorpus is three randomSources of 30 entries that mention and
// reference each other's entries, and their own.
func randomCorpus(t *testing.T, rng *rand.Rand, popts profile.Options) []*Source {
	a := randomSource(t, rng, popts, "ra", "RA", 30, nil, nil)
	var accs []string
	for i := 0; i < 30; i++ {
		accs = append(accs, fmt.Sprintf("RA%04d", i))
	}
	b := randomSource(t, rng, popts, "rb", "RB", 30, namesOf(a), accs)
	for i := 0; i < 30; i++ {
		accs = append(accs, fmt.Sprintf("RB%04d", i))
	}
	c := randomSource(t, rng, popts, "rc", "RC", 30, append(namesOf(a), namesOf(b)...), accs)
	return []*Source{a, b, c}
}

// TestEntityLinksMatchExtract and TestXRefMatchesDistinctValues run
// random corpora through the engine, built whole and streamed in three
// batches, and compare every call with the oracles.
func TestEntityLinksMatchExtract(t *testing.T) {
	oracleRounds(t, Options{DisableSequenceLinks: true, DisableTextLinks: true}, func(d discovered) int { return len(d.entity) })
}

func TestXRefMatchesDistinctValues(t *testing.T) {
	oracleRounds(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true},
		func(d discovered) int { return len(d.xattrs) })
}

// oracleRounds runs 12 random corpora under opts, at workers 1 and 3,
// DiscoverAll over the sources added whole, then each source streamed
// in three batches — every call checked against the oracles — and
// DiscoverAll over the grown sources. Every other corpus is profiled
// keeping no more than 8 distinct values, so its accession sets come
// from the relations. count says how much of a call's output the test
// is about; the rounds must produce some.
func oracleRounds(t *testing.T, opts Options, count func(discovered) int) {
	rng := rand.New(rand.NewSource(27))
	total := 0
	for round := 0; round < 12; round++ {
		srcs := randomCorpus(t, rng, profile.Options{MaxTrackedDistinct: 8 * (round % 2)})
		for _, workers := range []int{1, 3} {
			opts.Workers = workers
			whole := newEngine(t, opts, srcs...)
			links, xattrs, _ := whole.DiscoverAll()
			got, want := observed(links, xattrs), oracleDiscover(whole, nil)
			sameDiscovered(t, fmt.Sprintf("round %d workers %d whole", round, workers), got, want)
			total += count(got)

			e := New(opts)
			streamGrown(t, e, srcs, 3, func(call string, batch *Source, links []metadata.Link, xattrs []XRefAttribute) []string {
				got := observed(links, xattrs)
				sameDiscovered(t, fmt.Sprintf("round %d workers %d %s", round, workers, call), got, oracleDiscover(e, batch))
				total += count(got)
				return nil
			})
			links, xattrs, _ = e.DiscoverAll()
			got = observed(links, xattrs)
			sameDiscovered(t, fmt.Sprintf("round %d workers %d grown", round, workers), got, oracleDiscover(e, nil))
			total += count(got)
		}
	}
	if total == 0 {
		t.Fatal("the random corpora gave nothing to compare")
	}
	t.Logf("%d compared", total)
}
