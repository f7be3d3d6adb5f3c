// Package linkdisc implements ALADIN's link discovery step (§4.4): it
// finds explicit cross-references between data sources (accession values
// of one source appearing — possibly inside composite strings such as
// "Uniprot:P11140" — in attributes of another) and implicit links based on
// sequence homology, text similarity, recognized entity names, and shared
// ontology terms. Discovered links are object-level and are stored in the
// metadata repository "to avoid repeated discovery and computation at
// query time".
//
// Each Source carries the state discovery derives from it (forms.go):
// its §4.3 ownership table, the prepared forms of the text and entity
// channels, the xref channel's per-attribute value sets and its accession
// set. They are built from the source when missing, grown at publish by
// a streamed batch's (Source.Grow), dropped when DML replaces the
// relations (Source.Drop) and replaced by a re-analysis (Source.Adopt),
// so a batch costs discovery what the batch holds, not what the
// warehouse does.
package linkdisc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/seq"
)

// Source bundles one imported data source, or one batch of one, with its
// discovered structure and statistics — the inputs link discovery needs —
// and the forms discovery derives from them (see the package comment).
type Source struct {
	DB        *rel.Database
	Structure *discovery.Structure
	Profiles  map[string]*profile.ColumnProfile
	forms     forms
}

// Name returns the source name.
func (s *Source) Name() string { return s.DB.Name }

// Options switches link discovery's channels and pruning. Everything
// else is the fixed policy below: no source is tuned by hand.
type Options struct {
	// DisablePruning turns off the §4.4 attribute pruning rules (numeric
	// exclusion, low-distinct exclusion, key-target-only) for the E10
	// ablation.
	DisablePruning bool
	// DisableSequenceLinks, DisableTextLinks and DisableEntityLinks switch
	// off individual implicit-link channels.
	DisableSequenceLinks bool
	DisableTextLinks     bool
	DisableEntityLinks   bool
	// Workers bounds the worker pool parallelizing the per-attribute and
	// per-tuple inner loops of each discovery channel. Values <= 1 run
	// serially; results are identical for any worker count.
	Workers int
}

// The link policy.
const (
	// minXRefMatchFrac is the fraction of a candidate attribute's distinct
	// values that must resolve to accessions of a target source before the
	// attribute pair is declared a cross-reference: xref columns routinely
	// mix targets of many databases, as Swiss-Prot's DR lines do, so
	// per-target fractions are small; §5 matches values, not whole
	// attributes.
	minXRefMatchFrac = 0.05
	// minXRefMatchCount additionally requires this many distinct values to
	// resolve, suppressing coincidental single-value collisions.
	minXRefMatchCount = 3
	// minSeqIdentity is the identity a sequence alignment needs to link.
	minSeqIdentity = 0.7
	// seqMinScore is the least alignment score of a sequence link, that of
	// 20 matched bases.
	seqMinScore = 40
	// seqKmer is the seeding k-mer length.
	seqKmer = 8
	// minTextCosine is the TF-IDF cosine threshold for text links.
	minTextCosine = 0.55
	// maxSharedTermFanout skips ontology terms referenced by more than this
	// many objects when deriving term-sharing links, against hub blowup.
	maxSharedTermFanout = 25
)

// Stats reports the work link discovery performed.
type Stats struct {
	AttributePairsConsidered int
	AttributePairsPruned     int
	AttributePairsChecked    int
	XRefAttributePairs       int
	// SequenceSeeded counts the sequence pairs sharing two k-mers,
	// SequenceAligned those of them Smith-Waterman scored, and
	// SequenceCells the dynamic-programming cells that scoring filled.
	SequenceSeeded  int
	SequenceAligned int
	SequenceCells   int64
	// SequenceComparisons counts the sequence hits above minSeqIdentity,
	// one per query tuple and target owner in each direction: not the
	// pairs compared, which SequenceSeeded and SequenceAligned count.
	SequenceComparisons int
	TextComparisons     int
	Links               int
}

// XRefAttribute records one discovered cross-reference attribute pair:
// values of From (in some relation of the From source) point at accessions
// of the To source's primary relation.
type XRefAttribute struct {
	FromSource   string
	FromRelation string
	FromColumn   string
	ToSource     string
	// MatchFrac is the fraction of distinct source values resolving to
	// target accessions.
	MatchFrac float64
	// Composite is true when values embed the accession in a composite
	// string ("Uniprot:P11140") rather than matching directly.
	Composite bool
}

// Engine discovers links between sources.
type Engine struct {
	opts    Options
	sources []*Source
	byName  map[string]*Source
	// terms numbers the terms of every text form the engine builds.
	terms *termDict
}

// New creates an engine.
func New(opts Options) *Engine {
	return &Engine{opts: opts, byName: make(map[string]*Source), terms: newTermDict()}
}

// AddSource registers a source for linking. Sources must have completed
// discovery steps 2+3 (Structure non-nil).
func (e *Engine) AddSource(s *Source) error {
	if s.Structure == nil {
		return fmt.Errorf("linkdisc: source %q has no discovered structure", s.DB.Name)
	}
	key := strings.ToLower(s.DB.Name)
	if _, dup := e.byName[key]; dup {
		return fmt.Errorf("linkdisc: source %q already added", s.DB.Name)
	}
	s.Owners()
	e.sources = append(e.sources, s)
	e.byName[key] = s
	return nil
}

// Source returns a registered source by name.
func (e *Engine) Source(name string) *Source { return e.byName[strings.ToLower(name)] }

// DiscoverAll runs link discovery between every ordered pair of distinct
// sources and returns the links plus per-pair xref attributes.
func (e *Engine) DiscoverAll() ([]metadata.Link, []XRefAttribute, Stats) {
	ctx := context.Background()
	var links []metadata.Link
	var xattrs []XRefAttribute
	var stats Stats
	for _, s := range e.sources {
		e.fill(s)
	}
	// One seeding pass per unordered pair yields both directions' links.
	seqLinks := make(map[[2]*Source][]metadata.Link)
	for i, a := range e.sources {
		for _, b := range e.sources[i+1:] {
			fwd, rev, st, _ := e.discoverSequenceLinks(ctx, a, b)
			seqLinks[[2]*Source{a, b}], seqLinks[[2]*Source{b, a}] = fwd, rev
			addStats(&stats, st)
		}
	}
	for _, from := range e.sources {
		for _, to := range e.sources {
			if from == to {
				continue
			}
			ls, xs, st, _ := e.discoverPair(ctx, from, to, seqLinks[[2]*Source{from, to}])
			links = append(links, ls...)
			xattrs = append(xattrs, xs...)
			addStats(&stats, st)
		}
	}
	stats.Links = len(links)
	return links, xattrs, stats
}

// DiscoverAgainst runs link discovery between a candidate source and all
// registered sources — in both directions — WITHOUT registering the
// candidate: the incremental addition mode of §3, computed as the first
// half of a snapshot-then-commit source addition whose registration
// (AddSource) happens later under the caller's write lock. The
// candidate's forms are built here if missing. Discovery and
// registration calls must be serialized (integrations are).
func (e *Engine) DiscoverAgainst(ctx context.Context, nu *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	if nu.Structure == nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: source %q has no discovered structure", nu.DB.Name)
	}
	if s := e.Source(nu.DB.Name); s != nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: source %q already added", nu.DB.Name)
	}
	return e.discoverBothWays(ctx, nu)
}

// DiscoverAppended runs link discovery between a batch of records being
// appended to an already-registered source and all *other* registered
// sources, in both directions. nu carries the batch tuples only (its DB
// holds just the appended records) under the registered source's name,
// structure, and profiles; links against the registered copy of the same
// source are skipped — those would be intra-source links, which ALADIN
// does not model. Like DiscoverAgainst it runs in the prepare half of a
// batch commit and builds the batch's forms if missing — its ownership
// table resolves the batch's dependent rows to the batch's own primary
// objects — which publish then grows the registered source's by.
func (e *Engine) DiscoverAppended(ctx context.Context, nu *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	if nu.Structure == nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: source %q has no discovered structure", nu.DB.Name)
	}
	if e.Source(nu.DB.Name) == nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: append to unregistered source %q", nu.DB.Name)
	}
	return e.discoverBothWays(ctx, nu)
}

// RefreshResolver drops a registered source's forms (Source.Drop), for
// a caller that replaced or grew its relations without growing the
// forms.
func (e *Engine) RefreshResolver(name string) {
	if s := e.Source(name); s != nil {
		s.Drop()
	}
}

// discoverBothWays discovers links between nu and every *other* registered
// source, in both directions. A registered source with nu's name is also
// skipped, so an append batch (DiscoverAppended) is never linked against
// the source it extends. The missing forms of nu and of the sources it is
// linked against are built first, before any worker pool starts; with
// nothing to link against, nu's are left to be built when first read.
//
// Sequence links are discovered once per source pair, both directions
// from one seeding pass (discoverSequenceLinks); everything else runs per
// direction. Links come in two blocks per pair — nu's xref, sequence,
// text and entity links to other, then other's to nu — the order the
// repository's "first stored wins" ties and the WAL depend on.
func (e *Engine) discoverBothWays(ctx context.Context, nu *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	var others []*Source
	for _, s := range e.sources {
		if s != nu && !strings.EqualFold(s.DB.Name, nu.DB.Name) {
			e.fill(s)
			others = append(others, s)
		}
	}
	if len(others) == 0 {
		nu.Owners()
		return nil, nil, Stats{}, nil
	}
	e.fill(nu)
	var links []metadata.Link
	var xattrs []XRefAttribute
	var stats Stats
	for _, other := range others {
		fwd, rev, st, err := e.discoverSequenceLinks(ctx, nu, other)
		if err != nil {
			return nil, nil, Stats{}, err
		}
		addStats(&stats, st)
		for _, d := range [2]struct {
			from, to *Source
			seq      []metadata.Link
		}{{nu, other, fwd}, {other, nu, rev}} {
			ls, xs, st, err := e.discoverPair(ctx, d.from, d.to, d.seq)
			if err != nil {
				return nil, nil, Stats{}, err
			}
			links = append(links, ls...)
			xattrs = append(xattrs, xs...)
			addStats(&stats, st)
		}
	}
	stats.Links = len(links)
	return links, xattrs, stats, nil
}

func addStats(dst *Stats, s Stats) {
	dst.AttributePairsConsidered += s.AttributePairsConsidered
	dst.AttributePairsPruned += s.AttributePairsPruned
	dst.AttributePairsChecked += s.AttributePairsChecked
	dst.XRefAttributePairs += s.XRefAttributePairs
	dst.SequenceSeeded += s.SequenceSeeded
	dst.SequenceAligned += s.SequenceAligned
	dst.SequenceCells += s.SequenceCells
	dst.SequenceComparisons += s.SequenceComparisons
	dst.TextComparisons += s.TextComparisons
}

// discoverPair finds links from objects of `from` to objects of `to`,
// placing the already discovered sequence links after the xref links.
func (e *Engine) discoverPair(ctx context.Context, from, to *Source, seqLinks []metadata.Link) ([]metadata.Link, []XRefAttribute, Stats, error) {
	var links []metadata.Link
	var stats Stats
	xls, xattrs, xst, err := e.discoverXRefs(ctx, from, to)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	links = append(links, xls...)
	links = append(links, seqLinks...)
	addStats(&stats, xst)
	if !e.opts.DisableTextLinks {
		tls, n, err := e.discoverTextLinks(ctx, from, to)
		if err != nil {
			return nil, nil, Stats{}, err
		}
		links = append(links, tls...)
		stats.TextComparisons += n
	}
	if !e.opts.DisableEntityLinks {
		els, err := e.discoverEntityLinks(ctx, from, to)
		if err != nil {
			return nil, nil, Stats{}, err
		}
		links = append(links, els...)
	}
	return links, xattrs, stats, nil
}

// primaryRef builds an ObjectRef for a primary object of s.
func primaryRef(s *Source, accession string) metadata.ObjectRef {
	return metadata.ObjectRef{
		Source:    s.DB.Name,
		Relation:  s.Structure.Primary,
		Accession: accession,
	}
}

// CompositeParts returns the accession candidates embedded in a raw
// cross-reference value: the value itself plus the trailing segment after
// common separators (":", "/", "|", "=") — handling encodings such as
// "Uniprot:P11140" (§4.4).
func CompositeParts(v string) []string {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil
	}
	parts := []string{v}
	for _, sep := range []string{":", "/", "|", "="} {
		if i := strings.LastIndex(v, sep); i >= 0 && i+1 < len(v) {
			parts = append(parts, strings.TrimSpace(v[i+1:]))
		}
	}
	return parts
}

// discoverXRefs implements explicit link discovery: candidate targets are
// the accession fields of primary relations of other sources; candidate
// sources are all attributes, pruned per §4.4 (xrefCandidates), each
// matched through its value set.
func (e *Engine) discoverXRefs(ctx context.Context, from, to *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	var stats Stats
	var links []metadata.Link
	var xattrs []XRefAttribute
	if to.Structure.Primary == "" || from.Structure.Primary == "" {
		return nil, nil, stats, nil
	}
	targetAcc := to.forms.acc
	if len(targetAcc) == 0 {
		return nil, nil, stats, nil
	}
	// The value sets are matched on the worker pool, writing into indexed
	// slots so output order stays the serial order.
	tasks := e.xrefCandidates(from, &stats)
	stats.AttributePairsChecked = len(tasks)

	type taskResult struct {
		hit       bool
		xattr     XRefAttribute
		taskLinks []metadata.Link
	}
	results := make([]taskResult, len(tasks))
	if err := parallel.For(ctx, e.opts.Workers, len(tasks), func(i int) {
		t := tasks[i]
		matchFrac, matched, composite := from.forms.values[t.key].matchFraction(t.r, targetAcc)
		if matchFrac < minXRefMatchFrac || matched < minXRefMatchCount {
			return
		}
		col := t.r.Schema.Columns[t.col].Name
		results[i] = taskResult{
			hit: true,
			xattr: XRefAttribute{
				FromSource: from.DB.Name, FromRelation: t.r.Name, FromColumn: col,
				ToSource: to.DB.Name, MatchFrac: matchFrac, Composite: composite,
			},
			taskLinks: e.xrefObjectLinks(from, to, t.r, t.col, targetAcc, matchFrac),
		}
	}); err != nil {
		return nil, nil, Stats{}, err
	}
	for _, res := range results {
		if !res.hit {
			continue
		}
		stats.XRefAttributePairs++
		xattrs = append(xattrs, res.xattr)
		links = append(links, res.taskLinks...)
	}
	return links, xattrs, stats, nil
}

// xrefObjectLinks emits the object-level links for one discovered xref
// attribute pair.
func (e *Engine) xrefObjectLinks(from, to *Source, r *rel.Relation, ci int,
	targetAcc map[string]bool, matchFrac float64) []metadata.Link {

	method := fmt.Sprintf("xref:%s.%s", r.Name, r.Schema.Columns[ci].Name)
	var out []metadata.Link
	seen := make(map[string]bool)
	for ti, t := range r.Tuples {
		v := t[ci]
		if v.IsNull() {
			continue
		}
		var acc string
		for _, part := range CompositeParts(v.AsString()) {
			if targetAcc[part] {
				acc = part
				break
			}
		}
		if acc == "" {
			continue
		}
		for _, owner := range from.forms.owners.Of(r.Name, ti) {
			k := owner + "\x00" + acc
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, metadata.Link{
				Type:       metadata.LinkXRef,
				From:       primaryRef(from, owner),
				To:         primaryRef(to, acc),
				Confidence: matchFrac,
				Method:     method,
			})
		}
	}
	return out
}

// seqTuple is one non-null sequence value of a source and the primary
// objects owning it.
type seqTuple struct {
	seq    string
	owners []string
}

// seqTuples lists a source's sequence values in column and tuple order.
func seqTuples(s *Source) []seqTuple {
	var out []seqTuple
	for _, r := range s.DB.Relations() {
		for ci, c := range r.Schema.Columns {
			if p := s.Profiles[profile.Key(r.Name, c.Name)]; p == nil || !p.IsSequenceField() {
				continue
			}
			for ti, t := range r.Tuples {
				if !t[ci].IsNull() {
					out = append(out, seqTuple{t[ci].AsString(), s.forms.owners.Of(r.Name, ti)})
				}
			}
		}
	}
	return out
}

// discoverSequenceLinks finds the sequence links of one source pair in
// both directions — a's objects to b's (fwd), b's to a's (rev) — and the
// work and hits behind them. It indexes the smaller side and probes the
// index with the other (seeding and scoring are symmetric: the pairs,
// work and links are the same), so each candidate pair is seeded and
// scored once (seq.CrossSearch) and only hits are traced back, once per
// direction.
func (e *Engine) discoverSequenceLinks(ctx context.Context, a, b *Source) (fwd, rev []metadata.Link, st Stats, err error) {
	if e.opts.DisableSequenceLinks {
		return nil, nil, Stats{}, nil
	}
	as, bs := seqTuples(a), seqTuples(b)
	if len(as) == 0 || len(bs) == 0 {
		return nil, nil, Stats{}, nil
	}
	var toB, toA [][]seq.Hit
	var w seq.Work
	if len(bs) > len(as) {
		toA, toB, w, err = e.crossHits(ctx, bs, as)
	} else {
		toB, toA, w, err = e.crossHits(ctx, as, bs)
	}
	if err != nil {
		return nil, nil, Stats{}, err
	}
	fwd, n := e.seqLinks(a, b, as, toB)
	rev, m := e.seqLinks(b, a, bs, toA)
	return fwd, rev, Stats{SequenceSeeded: w.Seeded, SequenceAligned: w.Aligned, SequenceCells: w.Cells, SequenceComparisons: n + m}, nil
}

// crossHits indexes ts and probes it with every query of qs on the worker
// pool. It returns each query's hits on the owners of ts, and each
// target's hits on the owners of qs — what indexing qs and probing with
// ts would find — both above minSeqIdentity, not yet ranked, and the
// work of every query's search.
func (e *Engine) crossHits(ctx context.Context, qs, ts []seqTuple) (fwd, rev [][]seq.Hit, w seq.Work, err error) {
	ix := seq.NewIndex(seqKmer)
	for _, t := range ts {
		ix.Add("", t.seq)
	}
	opts := seq.SearchOptions{MinScore: seqMinScore}
	pairs := make([][]seq.Pair, len(qs))
	works := make([]seq.Work, len(qs))
	if err := parallel.For(ctx, e.opts.Workers, len(qs), func(i int) {
		pairs[i] = ix.CrossSearch(qs[i].seq, opts, &works[i])
	}); err != nil {
		return nil, nil, w, err
	}
	for _, qw := range works {
		w.Add(qw)
	}
	add := func(hits []seq.Hit, owners []string, al seq.Alignment) []seq.Hit {
		if al.Identity < minSeqIdentity {
			return hits
		}
		for _, o := range owners {
			hits = append(hits, seq.Hit{TargetID: o, Alignment: al})
		}
		return hits
	}
	fwd, rev = make([][]seq.Hit, len(qs)), make([][]seq.Hit, len(ts))
	for i, ps := range pairs {
		for _, p := range ps {
			fwd[i] = add(fwd[i], ts[p.Target].owners, p.Fwd)
			rev[p.Target] = add(rev[p.Target], qs[i].owners, p.Rev)
		}
	}
	return fwd, rev, w, nil
}

// seqLinks ranks each query's hits as seq.Search does, links every owner
// of the query to each hit, once per object pair, and counts the hits.
func (e *Engine) seqLinks(from, to *Source, qs []seqTuple, hits [][]seq.Hit) ([]metadata.Link, int) {
	n := 0
	var out []metadata.Link
	seen := make(map[string]bool)
	for i, hs := range hits {
		hs = seq.Rank(hs)
		n += len(hs)
		for _, h := range hs {
			for _, owner := range qs[i].owners {
				k := owner + "\x00" + h.TargetID
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, metadata.Link{
					Type:       metadata.LinkSequence,
					From:       primaryRef(from, owner),
					To:         primaryRef(to, h.TargetID),
					Confidence: h.Alignment.Identity,
					Method:     fmt.Sprintf("seq:identity=%.2f score=%d", h.Alignment.Identity, h.Alignment.Score),
				})
			}
		}
	}
	return out, n
}

// textDoc is one primary object's concatenated free-text annotation.
type textDoc struct {
	accession string
	text      string
}

// primaryDocs locates a source's primary documents, its free-text
// annotation: the rows of its primary relation with an accession and a
// non-null value in some text field.
type primaryDocs struct {
	r    *rel.Relation
	acc  int   // the accession column
	text []int // the text fields
}

// primaryDocsOf locates s's primary documents; false if it can have none.
func primaryDocsOf(s *Source) (primaryDocs, bool) {
	r := s.primary()
	if r == nil {
		return primaryDocs{}, false
	}
	d := primaryDocs{r: r, acc: r.Schema.Index(s.Structure.PrimaryAccession)}
	for i, c := range r.Schema.Columns {
		if p := s.Profiles[profile.Key(r.Name, c.Name)]; p != nil && p.IsTextField() {
			d.text = append(d.text, i)
		}
	}
	return d, d.acc >= 0 && len(d.text) > 0
}

// values appends the non-null text values of row to dst, an empty
// buffer, and reports whether row is a document.
func (d primaryDocs) values(dst []string, row int) ([]string, bool) {
	t := d.r.Tuples[row]
	if t[d.acc].IsNull() {
		return dst, false
	}
	for _, ci := range d.text {
		if !t[ci].IsNull() {
			dst = append(dst, t[ci].AsString())
		}
	}
	return dst, len(dst) > 0
}

// textDocs collects, per primary document in row order, the accession and
// the text values joined by spaces.
func textDocs(s *Source) []textDoc {
	d, ok := primaryDocsOf(s)
	if !ok {
		return nil
	}
	var out []textDoc
	var vals []string
	for row, t := range d.r.Tuples {
		if vals, ok = d.values(vals[:0], row); ok {
			out = append(out, textDoc{accession: t[d.acc].AsString(), text: strings.Join(vals, " ")})
		}
	}
	return out
}

// DeriveOntologyLinks post-processes discovered xref links: objects from
// different sources referencing the same term of an ontology source are
// linked directly ("the resulting values make excellent links, connecting
// proteins with similar function", §4.4). Terms referenced by more than
// maxSharedTermFanout objects are skipped to avoid hub blowup.
func (e *Engine) DeriveOntologyLinks(links []metadata.Link, ontologySource string) []metadata.Link {
	key := strings.ToLower(ontologySource)
	byTerm := make(map[string][]metadata.ObjectRef)
	for _, l := range links {
		if l.Type != metadata.LinkXRef {
			continue
		}
		if strings.ToLower(l.To.Source) == key {
			byTerm[l.To.Accession] = append(byTerm[l.To.Accession], l.From)
		}
	}
	var out []metadata.Link
	seen := make(map[string]bool)
	terms := make([]string, 0, len(byTerm))
	for t := range byTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, term := range terms {
		refs := byTerm[term]
		if len(refs) < 2 || len(refs) > maxSharedTermFanout {
			continue
		}
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				a, b := refs[i], refs[j]
				if strings.EqualFold(a.Source, b.Source) {
					continue
				}
				k := a.Key() + "\x00" + b.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, metadata.Link{
					Type:       metadata.LinkOntology,
					From:       a,
					To:         b,
					Confidence: 1.0 / float64(len(refs)-1),
					Method:     fmt.Sprintf("shared-term:%s:%s", ontologySource, term),
				})
			}
		}
	}
	return out
}
