package linkdisc

import (
	"repro/internal/discovery"
	"repro/internal/profile"
	"repro/internal/rel"
)

// forms is the state link discovery derives from one source, beside its
// relations: every form is a function of the source's data, structure
// and profiles, and all of them share one lifecycle.
//
//   - Built from the whole source when missing (Engine.fill), before any
//     worker pool starts, so the pools only read forms.
//   - Grown at publish by the batch's forms (Source.Grow), at the
//     positions the relations' append branches gave the batch's tuples;
//     a form the batch lacks is dropped and rebuilt when next read.
//   - Dropped when the relations are replaced (Source.Drop: DML).
//   - Replaced by a re-analysis candidate's (Source.Adopt).
//
// The ownership table is the exception: a registered source always
// holds it. Browse reads it under the read lock, where nothing may be
// built, so Drop rebuilds it at once. It is also the only form
// persisted — as the batch sizes a checkpoint records — so recovery and
// replicas rebuild the rest lazily.
type forms struct {
	// owners is the §4.3 ownership table and its inverse, which browse
	// reads.
	owners *discovery.Owners
	// text is the prepared form text links read.
	text *TextForm
	// entity is the prepared form entity links read.
	entity *entityForm
	// values holds the distinct values of every attribute the xref
	// channel checks, by profile.Key.
	values map[string]*valueSet
	// acc is the accession set xref targets resolve to; accOf is the
	// profile it was read from, nil when it was read from the relation.
	acc   map[string]bool
	accOf *profile.ColumnProfile
}

// NewSource bundles a source, or one batch of one, for link discovery,
// with its ownership table built from the batch sizes a checkpoint
// recorded (discovery.OwnersOfBatches; nil for one batch). The other
// forms are built when discovery first reads them.
func NewSource(db *rel.Database, st *discovery.Structure, profs map[string]*profile.ColumnProfile, batches [][]int) (*Source, error) {
	owners, err := discovery.OwnersOfBatches(db, st, batches)
	if err != nil {
		return nil, err
	}
	return &Source{DB: db, Structure: st, Profiles: profs, forms: forms{owners: owners}}, nil
}

// Owners returns the source's ownership table, built from the whole
// source, as one batch, if it has none. A registered source has one
// (AddSource, Drop and Adopt see to it), so reading a registered
// source's table builds nothing.
func (s *Source) Owners() *discovery.Owners {
	if s.forms.owners == nil {
		s.forms.owners = discovery.OwnersOf(s.DB, s.Structure)
	}
	return s.forms.owners
}

// Grow grows s's forms by b's, the forms of a batch just appended to s:
// call it after s's relations grew by b's tuples. It changes the forms in
// place — an earlier name's row and column, a hash chain's latest item —
// so it must run under the publish lock, with no other Source holding
// s's forms (a batch may share s's accession set, which Grow never
// writes).
func (s *Source) Grow(b *Source) {
	f, bf := &s.forms, &b.forms
	f.owners.Append(b.Owners())
	f.text = f.text.Append(bf.text)
	if pr := s.primary(); pr != nil {
		f.entity = f.entity.grow(bf.entity, s, pr, rowsBefore(pr, b.DB))
	}
	for key, vs := range f.values {
		r := s.DB.Relation(vs.rel)
		base := rowsBefore(r, b.DB)
		if base == len(r.Tuples) {
			continue
		}
		if bv := bf.values[key]; bv != nil {
			vs.grow(bv, r, base)
		} else {
			delete(f.values, key)
		}
	}
	if f.accOf == nil {
		// Read from the relation, the set grows with it.
		f.acc = nil
	}
}

// rowsBefore is how many of r's tuples precede the batch's, now that r
// grew by the tuples batch holds under r's name.
func rowsBefore(r *rel.Relation, batch *rel.Database) int {
	if br := batch.Relation(r.Name); br != nil {
		return len(r.Tuples) - len(br.Tuples)
	}
	return len(r.Tuples)
}

// Drop discards s's forms, for a source whose relations were replaced
// rather than grown. The ownership table, the one form a checkpoint
// records, is rebuilt at once from the whole source as one batch; the
// others when next read.
func (s *Source) Drop() {
	s.forms = forms{owners: discovery.OwnersOf(s.DB, s.Structure)}
}

// Adopt gives s the structure, profiles and forms of c, a re-analysis
// candidate built over s's relations.
func (s *Source) Adopt(c *Source) {
	s.Structure, s.Profiles, s.forms = c.Structure, c.Profiles, c.forms
}

// primary returns s's primary relation, nil if it has none.
func (s *Source) primary() *rel.Relation {
	if s.Structure.Primary == "" {
		return nil
	}
	return s.DB.Relation(s.Structure.Primary)
}

// fill builds every form of s that the enabled channels read and s
// lacks.
func (e *Engine) fill(s *Source) {
	f := &s.forms
	s.Owners()
	if !e.opts.DisableTextLinks && (f.text == nil || f.text.dict != e.terms) {
		f.text = e.terms.form(textDocs(s))
	}
	if !e.opts.DisableEntityLinks && f.entity == nil {
		f.entity = entityFormOf(s)
	}
	if s.Structure.Primary == "" {
		return
	}
	if f.values == nil {
		f.values = make(map[string]*valueSet)
	}
	for _, a := range e.xrefCandidates(s, nil) {
		if f.values[a.key] == nil {
			f.values[a.key] = valueSetOf(a.r, a.col)
		}
	}
	e.fillAccessions(s)
}

// fillAccessions gives s the accession set its xref targets resolve to:
// the accessions its primary accession's profile recorded, or else those
// of its primary relation. A set read from a profile is the registered
// source's when that holds the same profile — as a streamed batch does,
// which carries the registered profiles — and like the profile it
// describes the source's first batch only (ROADMAP item 2(b)).
func (e *Engine) fillAccessions(s *Source) {
	f := &s.forms
	if f.acc != nil {
		return
	}
	p := s.Profiles[profile.Key(s.Structure.Primary, s.Structure.PrimaryAccession)]
	if p == nil || p.DistinctValues == nil {
		f.acc, f.accOf = relationAccessions(s), nil
		return
	}
	if reg := e.Source(s.Name()); reg != nil && reg != s && reg.Profiles[profile.Key(reg.Structure.Primary, reg.Structure.PrimaryAccession)] == p {
		e.fillAccessions(reg)
		if reg.forms.accOf == p {
			f.acc, f.accOf = reg.forms.acc, p
			return
		}
	}
	f.acc, f.accOf = make(map[string]bool, len(p.DistinctValues)), p
	for _, v := range p.DistinctValues {
		f.acc[v.AsString()] = true
	}
}

// relationAccessions are the distinct accessions of s's primary
// relation.
func relationAccessions(s *Source) map[string]bool {
	out := make(map[string]bool)
	pr := s.primary()
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

// hashChains indexes items 0, 1, ... by a 32-bit hash without holding
// their keys: the items of one hash chain from the latest back to the
// first, and callers compare the items themselves to resolve collisions.
// Four bytes per hash halve the index of a 64-bit key; the rare
// collision costs one comparison.
type hashChains struct {
	last map[uint32]int32
	prev []int32 // item i's predecessor of the same hash, -1 for the first
}

// fold turns a 64-bit hash into a hashChains one.
func fold(h uint64) uint32 { return uint32(h) ^ uint32(h>>32) }

// add appends an item of hash h.
func (c *hashChains) add(h uint32) {
	if c.last == nil {
		c.last = make(map[uint32]int32)
	}
	c.prev = append(c.prev, c.of(h))
	c.last[h] = int32(len(c.prev) - 1)
}

// of returns the latest item of hash h, -1 if there is none.
func (c *hashChains) of(h uint32) int32 {
	if i, ok := c.last[h]; ok {
		return i
	}
	return -1
}

// extend appends b's items after c's, in order.
func (c *hashChains) extend(b *hashChains) {
	base := int32(len(c.prev))
	for _, p := range b.prev {
		if p >= 0 {
			p += base
		}
		c.prev = append(c.prev, p)
	}
	if c.last == nil {
		c.last = make(map[uint32]int32, len(b.last))
	}
	for h, i := range b.last {
		first := i
		for b.prev[first] >= 0 {
			first = b.prev[first]
		}
		c.prev[base+first] = c.of(h)
		c.last[h] = base + i
	}
}

// valueSet is one attribute's distinct non-null values by Value.Key
// identity, each held by its first occurrence as
// rel.Relation.DistinctValues keeps it, with the composite parts past
// the first of its string, which the xref channel matches beside the
// string itself.
type valueSet struct {
	rel   string // the attribute's relation
	col   int    // and column
	seen  hashChains
	row   []int32 // value i's first occurrence
	cut   []int32 // its composite parts are parts[cut[i]:cut[i+1]]
	parts []string
}

// valueSetOf collects the distinct values of r's column col.
func valueSetOf(r *rel.Relation, col int) *valueSet {
	vs := &valueSet{rel: r.Name, col: col, cut: []int32{0}}
	for row := range r.Tuples {
		if v := r.Tuples[row][col]; !v.IsNull() {
			if h, ok := vs.absent(r, v); ok {
				var tail []string
				if parts := CompositeParts(v.AsString()); len(parts) > 1 {
					tail = parts[1:]
				}
				vs.push(h, row, tail)
			}
		}
	}
	return vs
}

// absent reports whether v's class is missing from the set, whose values
// are r's, and returns its hash.
func (vs *valueSet) absent(r *rel.Relation, v rel.Value) (uint32, bool) {
	h := fold(v.Hash64())
	for i := vs.seen.of(h); i >= 0; i = vs.seen.prev[i] {
		if r.Tuples[vs.row[i]][vs.col].KeyEqual(v) {
			return h, false
		}
	}
	return h, true
}

// push adds the class of hash h first held by row, whose string's
// composite parts past the first are tail.
func (vs *valueSet) push(h uint32, row int, tail []string) {
	vs.seen.add(h)
	vs.row = append(vs.row, int32(row))
	vs.parts = append(vs.parts, tail...)
	vs.cut = append(vs.cut, int32(len(vs.parts)))
}

// grow adds the values of b, the set of a batch whose tuples r, the
// grown relation, holds from row base on.
func (vs *valueSet) grow(b *valueSet, r *rel.Relation, base int) {
	for i, row := range b.row {
		row := base + int(row)
		if h, ok := vs.absent(r, r.Tuples[row][vs.col]); ok {
			vs.push(h, row, b.parts[b.cut[i]:b.cut[i+1]])
		}
	}
}

// matchFraction computes the fraction and count of the set's values
// that resolve, directly or through a composite part, to target
// accessions, and whether composite parts resolve more of them. r is the
// attribute's relation.
func (vs *valueSet) matchFraction(r *rel.Relation, targetAcc map[string]bool) (float64, int, bool) {
	if len(vs.row) == 0 {
		return 0, 0, false
	}
	direct, viaComposite := 0, 0
	for i, row := range vs.row {
		if targetAcc[r.Tuples[row][vs.col].AsString()] {
			direct++
			continue
		}
		for _, part := range vs.parts[vs.cut[i]:vs.cut[i+1]] {
			if targetAcc[part] {
				viaComposite++
				break
			}
		}
	}
	frac := float64(direct+viaComposite) / float64(len(vs.row))
	return frac, direct + viaComposite, viaComposite > direct
}

// xrefAttr is one attribute the xref channel checks.
type xrefAttr struct {
	r   *rel.Relation
	col int
	key string // profile.Key
}

// xrefCandidates lists s's attributes the xref channel checks, in
// relation and column order: every profiled one but, unless pruning is
// off, those §4.4 prunes — purely numeric attributes (so as not to
// misread surrogate keys), attributes with fewer than two distinct
// values, and sequence and free-text fields (the implicit channels' to
// handle). It counts what it considered and pruned into st if non-nil.
func (e *Engine) xrefCandidates(s *Source, st *Stats) []xrefAttr {
	var out []xrefAttr
	for _, r := range s.DB.Relations() {
		for ci, c := range r.Schema.Columns {
			key := profile.Key(r.Name, c.Name)
			p := s.Profiles[key]
			if p == nil {
				continue
			}
			pruned := !e.opts.DisablePruning &&
				(p.PurelyNumeric || p.Distinct < 2 || p.IsSequenceField() || p.IsTextField())
			if st != nil {
				st.AttributePairsConsidered++
				if pruned {
					st.AttributePairsPruned++
				}
			}
			if !pruned {
				out = append(out, xrefAttr{r, ci, key})
			}
		}
	}
	return out
}
