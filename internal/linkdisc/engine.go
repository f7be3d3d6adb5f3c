// Package linkdisc implements ALADIN's link discovery step (§4.4): it
// finds explicit cross-references between data sources (accession values
// of one source appearing — possibly inside composite strings such as
// "Uniprot:P11140" — in attributes of another) and implicit links based on
// sequence homology, text similarity, recognized entity names, and shared
// ontology terms. Discovered links are object-level and are stored in the
// metadata repository "to avoid repeated discovery and computation at
// query time".
package linkdisc

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/ontology"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/seq"
	"repro/internal/textmine"
)

// Source bundles one imported data source with its discovered structure
// and statistics — the inputs link discovery needs.
type Source struct {
	DB        *rel.Database
	Structure *discovery.Structure
	Profiles  map[string]*profile.ColumnProfile
	// Owners maps DB's tuples to the primary objects owning them; links
	// found in any relation are made from those objects. The engine
	// builds it from DB when it is nil.
	Owners *discovery.Owners
	// Text is the prepared form text links read (TextForm). The engine
	// builds it from DB when it is nil, on the first text comparison.
	Text *TextForm
}

// fillOwners builds s's ownership table if it has none.
func fillOwners(s *Source) {
	if s.Owners == nil {
		s.Owners = discovery.OwnersOf(s.DB, s.Structure)
	}
}

// Name returns the source name.
func (s *Source) Name() string { return s.DB.Name }

// Options tunes link discovery.
type Options struct {
	// MinXRefMatchFrac is the fraction of a candidate attribute's distinct
	// values that must resolve to accessions of a target source before the
	// attribute pair is declared a cross-reference (default 0.05: xref
	// columns routinely mix targets of many databases, as Swiss-Prot's DR
	// lines do, so per-target fractions are small; §5 matches values, not
	// whole attributes).
	MinXRefMatchFrac float64
	// MinXRefMatchCount additionally requires this many distinct values to
	// resolve, suppressing coincidental single-value collisions
	// (default 3).
	MinXRefMatchCount int
	// MinSeqIdentity is the identity threshold for sequence links
	// (default 0.7).
	MinSeqIdentity float64
	// SeqMinScore is the minimal alignment score (default 40).
	SeqMinScore int
	// SeqKmer is the seeding k-mer length (default 8).
	SeqKmer int
	// SeqBothStrands searches the reverse complement too, linking
	// sequences stored on opposite DNA strands.
	SeqBothStrands bool
	// MinTextCosine is the TF-IDF cosine threshold for text links
	// (default 0.55).
	MinTextCosine float64
	// MaxSharedTermFanout skips ontology terms referenced by more than
	// this many objects when deriving term-sharing links (default 25).
	MaxSharedTermFanout int
	// DisablePruning turns off the §4.4 attribute pruning rules (numeric
	// exclusion, low-distinct exclusion, key-target-only) for the E10
	// ablation.
	DisablePruning bool
	// DisableSequenceLinks, DisableTextLinks, DisableEntityLinks,
	// DisableOntologyLinks switch off individual implicit-link channels.
	DisableSequenceLinks bool
	DisableTextLinks     bool
	DisableEntityLinks   bool
	DisableOntologyLinks bool
	// Workers bounds the worker pool parallelizing the per-attribute and
	// per-tuple inner loops of each discovery channel. Values <= 1 run
	// serially; results are identical for any worker count.
	Workers int
}

func (o *Options) fill() {
	if o.MinXRefMatchFrac <= 0 {
		o.MinXRefMatchFrac = 0.05
	}
	if o.MinXRefMatchCount <= 0 {
		o.MinXRefMatchCount = 3
	}
	if o.MinSeqIdentity <= 0 {
		o.MinSeqIdentity = 0.7
	}
	if o.SeqMinScore <= 0 {
		o.SeqMinScore = 40
	}
	if o.SeqKmer <= 0 {
		o.SeqKmer = 8
	}
	if o.MinTextCosine <= 0 {
		o.MinTextCosine = 0.55
	}
	if o.MaxSharedTermFanout <= 0 {
		o.MaxSharedTermFanout = 25
	}
}

// Stats reports the work link discovery performed.
type Stats struct {
	AttributePairsConsidered int
	AttributePairsPruned     int
	AttributePairsChecked    int
	XRefAttributePairs       int
	SequenceComparisons      int
	TextComparisons          int
	Links                    int
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
}

// New creates an engine.
func New(opts Options) *Engine {
	opts.fill()
	return &Engine{opts: opts, byName: make(map[string]*Source)}
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
	fillOwners(s)
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
		fillOwners(s)
	}
	// One seeding pass per unordered pair yields both directions' links.
	seqLinks := make(map[[2]*Source][]metadata.Link)
	for i, a := range e.sources {
		for _, b := range e.sources[i+1:] {
			fwd, rev, n, _ := e.discoverSequenceLinks(ctx, a, b)
			seqLinks[[2]*Source{a, b}], seqLinks[[2]*Source{b, a}] = fwd, rev
			stats.SequenceComparisons += n
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
// candidate's ownership table is built here if missing. Discovery and
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
// batch commit and builds the batch's ownership table if missing, so the
// batch's dependent rows resolve to the batch's own primary objects.
func (e *Engine) DiscoverAppended(ctx context.Context, nu *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	if nu.Structure == nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: source %q has no discovered structure", nu.DB.Name)
	}
	if e.Source(nu.DB.Name) == nil {
		return nil, nil, Stats{}, fmt.Errorf("linkdisc: append to unregistered source %q", nu.DB.Name)
	}
	return e.discoverBothWays(ctx, nu)
}

// RefreshResolver drops a registered source's ownership table and text
// form, for a caller that replaced or grew its relations without
// extending them; the next discovery rebuilds them from the whole source.
func (e *Engine) RefreshResolver(name string) {
	if s := e.Source(name); s != nil {
		s.Owners, s.Text = nil, nil
	}
}

// discoverBothWays discovers links between nu and every *other* registered
// source, in both directions. A registered source with nu's name is also
// skipped, so an append batch (DiscoverAppended) is never linked against
// the source it extends. The missing ownership tables of nu and of the
// sources it is linked against are built first, before any worker pool
// starts.
//
// Sequence links are discovered once per source pair, both directions
// from one seeding pass (discoverSequenceLinks); everything else runs per
// direction. Links come in two blocks per pair — nu's xref, sequence,
// text and entity links to other, then other's to nu — the order the
// repository's "first stored wins" ties and the WAL depend on.
func (e *Engine) discoverBothWays(ctx context.Context, nu *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	fillOwners(nu)
	var others []*Source
	for _, s := range e.sources {
		if s != nu && !strings.EqualFold(s.DB.Name, nu.DB.Name) {
			fillOwners(s)
			others = append(others, s)
		}
	}
	var links []metadata.Link
	var xattrs []XRefAttribute
	var stats Stats
	for _, other := range others {
		fwd, rev, n, err := e.discoverSequenceLinks(ctx, nu, other)
		if err != nil {
			return nil, nil, Stats{}, err
		}
		stats.SequenceComparisons += n
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

// accessionSet returns the distinct accession values of a source's
// primary relation as a set, plus the list form.
func accessionSet(s *Source) map[string]bool {
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
// sources are all attributes, pruned per §4.4.
func (e *Engine) discoverXRefs(ctx context.Context, from, to *Source) ([]metadata.Link, []XRefAttribute, Stats, error) {
	var stats Stats
	var links []metadata.Link
	var xattrs []XRefAttribute
	if to.Structure.Primary == "" || from.Structure.Primary == "" {
		return nil, nil, stats, nil
	}
	targetAcc := accessionSet(to)
	if len(targetAcc) == 0 {
		return nil, nil, stats, nil
	}
	// Candidate generation and §4.4 pruning are cheap and stay serial; the
	// value scans checking each surviving attribute run on the worker
	// pool, writing into indexed slots so output order stays the serial
	// order.
	type task struct {
		r   *rel.Relation
		col string
	}
	var tasks []task
	for _, r := range from.DB.Relations() {
		for _, c := range r.Schema.Columns {
			p := from.Profiles[profile.Key(r.Name, c.Name)]
			if p == nil {
				continue
			}
			stats.AttributePairsConsidered++
			if !e.opts.DisablePruning {
				// §4.4 pruning: exclude purely numeric attributes (to
				// avoid misinterpreting surrogate keys), attributes with
				// few distinct values, and long free-text / sequence
				// fields (handled by the implicit channels).
				if p.PurelyNumeric || p.Distinct < 2 || p.IsSequenceField() || p.IsTextField() {
					stats.AttributePairsPruned++
					continue
				}
			}
			tasks = append(tasks, task{r, c.Name})
		}
	}
	stats.AttributePairsChecked = len(tasks)

	type taskResult struct {
		hit       bool
		xattr     XRefAttribute
		taskLinks []metadata.Link
	}
	results := make([]taskResult, len(tasks))
	if err := parallel.For(ctx, e.opts.Workers, len(tasks), func(i int) {
		t := tasks[i]
		matchFrac, matched, composite := xrefMatchFraction(t.r, t.col, targetAcc)
		if matchFrac < e.opts.MinXRefMatchFrac || matched < e.opts.MinXRefMatchCount {
			return
		}
		results[i] = taskResult{
			hit: true,
			xattr: XRefAttribute{
				FromSource: from.DB.Name, FromRelation: t.r.Name, FromColumn: t.col,
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

// xrefMatchFraction computes the fraction and count of distinct values of
// r.col that resolve (directly or via composite parts) to target
// accessions.
func xrefMatchFraction(r *rel.Relation, col string, targetAcc map[string]bool) (float64, int, bool) {
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

// xrefObjectLinks emits the object-level links for one discovered xref
// attribute pair.
func (e *Engine) xrefObjectLinks(from, to *Source, r *rel.Relation, col string,
	targetAcc map[string]bool, matchFrac float64) []metadata.Link {

	ci := r.Schema.Index(col)
	if ci < 0 {
		return nil
	}
	method := fmt.Sprintf("xref:%s.%s", r.Name, col)
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
		for _, owner := range from.Owners.Of(r.Name, ti) {
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
					out = append(out, seqTuple{t[ci].AsString(), s.Owners.Of(r.Name, ti)})
				}
			}
		}
	}
	return out
}

// discoverSequenceLinks finds the sequence links of one source pair in
// both directions — a's objects to b's (fwd), b's to a's (rev) — and the
// hits behind them. It indexes b's sequences and probes the index with
// a's, so each candidate pair is seeded and scored once (seq.CrossSearch)
// and only hits are traced back, once per direction.
func (e *Engine) discoverSequenceLinks(ctx context.Context, a, b *Source) (fwd, rev []metadata.Link, hits int, err error) {
	if e.opts.DisableSequenceLinks {
		return nil, nil, 0, nil
	}
	as, bs := seqTuples(a), seqTuples(b)
	if len(as) == 0 || len(bs) == 0 {
		return nil, nil, 0, nil
	}
	toB, toA, err := e.crossHits(ctx, as, bs)
	asym := func(t seqTuple) bool { return !seq.MinusSymmetric(t.seq) }
	if err == nil && e.opts.SeqBothStrands && (slices.ContainsFunc(as, asym) || slices.ContainsFunc(bs, asym)) {
		// Reverse complementing is no involution on U or non-ASCII bytes:
		// with them, b's direction is seeded from b's end.
		toA, _, err = e.crossHits(ctx, bs, as)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	fwd, n := e.seqLinks(a, b, as, toB)
	rev, m := e.seqLinks(b, a, bs, toA)
	return fwd, rev, n + m, nil
}

// crossHits indexes ts and probes it with every query of qs on the worker
// pool. It returns each query's hits on the owners of ts, and each
// target's hits on the owners of qs — what indexing qs and probing with
// ts would find — both above MinSeqIdentity, not yet ranked.
func (e *Engine) crossHits(ctx context.Context, qs, ts []seqTuple) (fwd, rev [][]seq.Hit, err error) {
	ix := seq.NewIndex(e.opts.SeqKmer)
	for _, t := range ts {
		ix.Add("", t.seq)
	}
	opts := seq.SearchOptions{MinScore: e.opts.SeqMinScore, BothStrands: e.opts.SeqBothStrands}
	pairs := make([][]seq.Pair, len(qs))
	if err := parallel.For(ctx, e.opts.Workers, len(qs), func(i int) {
		pairs[i] = ix.CrossSearch(qs[i].seq, opts)
	}); err != nil {
		return nil, nil, err
	}
	add := func(hits []seq.Hit, owners []string, al seq.Alignment, minus bool) []seq.Hit {
		if al.Identity < e.opts.MinSeqIdentity {
			return hits
		}
		for _, o := range owners {
			hits = append(hits, seq.Hit{TargetID: o, Alignment: al, MinusStrand: minus})
		}
		return hits
	}
	fwd, rev = make([][]seq.Hit, len(qs)), make([][]seq.Hit, len(ts))
	for i, ps := range pairs {
		for _, p := range ps {
			fwd[i] = add(fwd[i], ts[p.Target].owners, p.Fwd, p.MinusStrand)
			rev[p.Target] = add(rev[p.Target], qs[i].owners, p.Rev, p.MinusStrand)
		}
	}
	return fwd, rev, nil
}

// seqLinks ranks each query's hits as seq.Search does, links every owner
// of the query to each hit, once per object pair, and counts the hits.
func (e *Engine) seqLinks(from, to *Source, qs []seqTuple, hits [][]seq.Hit) ([]metadata.Link, int) {
	n := 0
	var out []metadata.Link
	seen := make(map[string]bool)
	for i, hs := range hits {
		hs = seq.Rank(hs, e.opts.SeqBothStrands)
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

// textDocs collects, per primary object, the concatenation of text-field
// values of the primary relation.
func textDocs(s *Source) []textDoc {
	if s.Structure.Primary == "" {
		return nil
	}
	r := s.DB.Relation(s.Structure.Primary)
	if r == nil {
		return nil
	}
	accIdx := r.Schema.Index(s.Structure.PrimaryAccession)
	if accIdx < 0 {
		return nil
	}
	var textCols []int
	for i, c := range r.Schema.Columns {
		p := s.Profiles[profile.Key(r.Name, c.Name)]
		if p != nil && p.IsTextField() {
			textCols = append(textCols, i)
		}
	}
	if len(textCols) == 0 {
		return nil
	}
	var out []textDoc
	for _, t := range r.Tuples {
		acc := t[accIdx]
		if acc.IsNull() {
			continue
		}
		var parts []string
		for _, ci := range textCols {
			if !t[ci].IsNull() {
				parts = append(parts, t[ci].AsString())
			}
		}
		if len(parts) == 0 {
			continue
		}
		out = append(out, textDoc{accession: acc.AsString(), text: strings.Join(parts, " ")})
	}
	return out
}

// discoverEntityLinks extracts entity mentions from the new source's text
// fields and matches them against accessions and unique name fields of the
// target's primary relation (§4.4: "methods for finding names of
// biological entities in natural text ... matched with unique fields of
// primary relations").
func (e *Engine) discoverEntityLinks(ctx context.Context, from, to *Source) ([]metadata.Link, error) {
	if to.Structure.Primary == "" {
		return nil, nil
	}
	toRel := to.DB.Relation(to.Structure.Primary)
	if toRel == nil {
		return nil, nil
	}
	// Dictionary: values of all unique columns of the target's primary
	// relation, mapped back to the owning accession.
	accIdx := toRel.Schema.Index(to.Structure.PrimaryAccession)
	if accIdx < 0 {
		return nil, nil
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
			// §4.4 numeric exclusion: purely numeric unique values are
			// surrogate keys, not entity names; very short values match
			// by coincidence.
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
		return nil, nil
	}
	dict := make([]string, 0, len(nameToAcc))
	for n := range nameToAcc {
		dict = append(dict, n)
	}
	er := textmine.NewEntityRecognizer(dict)

	// Mention extraction per document is independent; the cross-document
	// dedupe reduces serially in document order.
	docs := textDocs(from)
	results := make([][]metadata.Link, len(docs))
	if err := parallel.For(ctx, e.opts.Workers, len(docs), func(di int) {
		d := docs[di]
		var ls []metadata.Link
		for _, m := range er.Extract(d.text) {
			acc, ok := nameToAcc[strings.ToLower(m.Text)]
			if !ok {
				continue
			}
			if acc == d.accession {
				continue
			}
			ls = append(ls, metadata.Link{
				Type:       metadata.LinkText,
				From:       primaryRef(from, d.accession),
				To:         primaryRef(to, acc),
				Confidence: 0.9,
				Method:     fmt.Sprintf("entity:%s", m.Text),
			})
		}
		results[di] = ls
	}); err != nil {
		return nil, err
	}
	var out []metadata.Link
	seen := make(map[string]bool)
	for _, ls := range results {
		for _, l := range ls {
			k := l.From.Accession + "\x00" + l.To.Accession
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, l)
		}
	}
	return out, nil
}

// DeriveOntologyLinksHierarchical extends DeriveOntologyLinks with term
// subsumption: objects referencing *similar* terms (Wu-Palmer similarity
// over the ontology's is_a hierarchy >= minSim) are linked even when the
// terms differ — the hierarchy-aware reading of §4.4's "connecting
// proteins with similar function". Exact shared-term pairs keep
// confidence from DeriveOntologyLinks; subsumption pairs carry the term
// similarity as confidence.
func (e *Engine) DeriveOntologyLinksHierarchical(links []metadata.Link,
	ontologySource string, h *ontology.Hierarchy, minSim float64) []metadata.Link {

	out := e.DeriveOntologyLinks(links, ontologySource)
	if e.opts.DisableOntologyLinks || h == nil || minSim <= 0 {
		return out
	}
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
	terms := make([]string, 0, len(byTerm))
	for t := range byTerm {
		if h.Has(t) && len(byTerm[t]) <= e.opts.MaxSharedTermFanout {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	seen := make(map[string]bool)
	for _, l := range out {
		seen[l.From.Key()+"\x00"+l.To.Key()] = true
		seen[l.To.Key()+"\x00"+l.From.Key()] = true
	}
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			sim := h.Similarity(terms[i], terms[j])
			if sim < minSim {
				continue
			}
			for _, a := range byTerm[terms[i]] {
				for _, b := range byTerm[terms[j]] {
					if strings.EqualFold(a.Source, b.Source) {
						continue
					}
					k := a.Key() + "\x00" + b.Key()
					if seen[k] {
						continue
					}
					seen[k] = true
					seen[b.Key()+"\x00"+a.Key()] = true
					out = append(out, metadata.Link{
						Type:       metadata.LinkOntology,
						From:       a,
						To:         b,
						Confidence: sim,
						Method:     fmt.Sprintf("term-similarity:%s~%s=%.2f", terms[i], terms[j], sim),
					})
				}
			}
		}
	}
	return out
}

// DeriveOntologyLinks post-processes discovered xref links: objects from
// different sources referencing the same term of an ontology source are
// linked directly ("the resulting values make excellent links, connecting
// proteins with similar function", §4.4). Terms referenced by more than
// MaxSharedTermFanout objects are skipped to avoid hub blowup.
func (e *Engine) DeriveOntologyLinks(links []metadata.Link, ontologySource string) []metadata.Link {
	if e.opts.DisableOntologyLinks {
		return nil
	}
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
		if len(refs) < 2 || len(refs) > e.opts.MaxSharedTermFanout {
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
