// Package objectweb implements ALADIN's browsing access mode (§4.6): the
// integrated warehouse "is best explained in analogy to the Web: the
// discovered objects correspond to Web pages, and the discovered links
// correspond to HTML links". Users traverse four relationship types:
//
//  1. Same relation — neighboring objects within a relation,
//  2. Dependency — secondary objects annotating a primary object,
//  3. Duplicates — flagged same-real-world-object links,
//  4. Linked — cross-reference and implicit links to other sources.
//
// The package also provides the link crawler feeding the search index and
// the [BLM+04] result ranking "based on the number, consistency, and
// length of different paths between two objects".
package objectweb

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/rel"
)

// Annotation is one secondary-object row attached to a primary object.
type Annotation struct {
	Relation string
	// Fields maps column -> value for the dependent row.
	Fields map[string]string
}

// ObjectView is everything the browser displays for one object.
type ObjectView struct {
	Ref metadata.ObjectRef
	// Fields are the primary-relation attribute values.
	Fields map[string]string
	// Annotations are the dependent secondary-object rows, grouped by the
	// §4.3 paths.
	Annotations []Annotation
	// SameRelation holds the previous and next accession within the
	// primary relation (browse relationship 1).
	PrevAccession, NextAccession string
	// Duplicates and Linked are the repository links touching the object
	// (browse relationships 3 and 4).
	Duplicates []metadata.Link
	Linked     []metadata.Link
}

type sourceData struct {
	db        *rel.Database
	structure *discovery.Structure
	// accOrder/accPos support same-relation navigation.
	accOrder []string
	accPos   map[string]int
}

// Web is the object-web browse engine over the warehouse and the metadata
// repository.
type Web struct {
	repo    *metadata.Repo
	sources map[string]*sourceData
}

// New creates a Web over a metadata repository.
func New(repo *metadata.Repo) *Web {
	return &Web{repo: repo, sources: make(map[string]*sourceData)}
}

// Prepared is browse data for one source, built by Prepare and not yet
// visible to readers until Install.
type Prepared struct {
	key string
	sd  *sourceData
}

// Prepare validates a source and builds its browse data without
// registering it — the compute half of a snapshot-then-commit source
// addition. Prepare only reads w, so it may run concurrently with
// browsing; Install publishes the result under the caller's write lock.
func (w *Web) Prepare(db *rel.Database, s *discovery.Structure) (*Prepared, error) {
	if s == nil || s.Primary == "" {
		return nil, fmt.Errorf("objectweb: source %q has no primary relation", db.Name)
	}
	pr := db.Relation(s.Primary)
	if pr == nil {
		return nil, fmt.Errorf("objectweb: source %q: missing primary relation %q", db.Name, s.Primary)
	}
	if pr.Schema.Index(s.PrimaryAccession) < 0 {
		return nil, fmt.Errorf("objectweb: source %q: missing accession column %q", db.Name, s.PrimaryAccession)
	}
	return prepared(db, s, nil, Accessions(db, s)), nil
}

// PrepareAppend builds the browse data for a registered source grown by a
// batch of appended primary objects: the added accessions (Accessions of
// the batch) are merged into a fresh sorted order while the database and
// structure pointers are shared with the installed sourceData — appended
// relations become visible through the shared database when the caller
// publishes its append branches. Like Prepare this only reads w (callers
// serialize integrations, so the read of w.sources races with nothing);
// Install publishes the result under the caller's write lock.
func (w *Web) PrepareAppend(source string, added []string) (*Prepared, error) {
	old := w.sources[strings.ToLower(source)]
	if old == nil {
		return nil, fmt.Errorf("objectweb: append to unknown source %q", source)
	}
	return prepared(old.db, old.structure, old.accOrder, added), nil
}

// Accessions lists the non-null primary accessions of db under s, in
// tuple order: none if db lacks the primary relation or its accession
// column.
func Accessions(db *rel.Database, s *discovery.Structure) []string {
	pr := db.Relation(s.Primary)
	if pr == nil {
		return nil
	}
	ai := pr.Schema.Index(s.PrimaryAccession)
	if ai < 0 {
		return nil
	}
	out := make([]string, 0, len(pr.Tuples))
	for _, t := range pr.Tuples {
		if !t[ai].IsNull() {
			out = append(out, t[ai].AsString())
		}
	}
	return out
}

// prepared is the browse data of db under s, whose accession order is
// order and added, sorted.
func prepared(db *rel.Database, s *discovery.Structure, order, added []string) *Prepared {
	sd := &sourceData{db: db, structure: s, accOrder: slices.Concat(order, added)}
	sort.Strings(sd.accOrder)
	sd.accPos = make(map[string]int, len(sd.accOrder))
	for i, a := range sd.accOrder {
		sd.accPos[a] = i
	}
	return &Prepared{key: strings.ToLower(db.Name), sd: sd}
}

// Install publishes a prepared source to the browse web.
func (w *Web) Install(p *Prepared) {
	w.sources[p.key] = p.sd
}

// Objects lists all primary-object refs of a source in accession order.
func (w *Web) Objects(source string) []metadata.ObjectRef {
	sd := w.sources[strings.ToLower(source)]
	if sd == nil {
		return nil
	}
	out := make([]metadata.ObjectRef, 0, len(sd.accOrder))
	for _, a := range sd.accOrder {
		out = append(out, metadata.ObjectRef{
			Source: sd.db.Name, Relation: sd.structure.Primary, Accession: a,
		})
	}
	return out
}

// Object assembles the browse view of one object from owners, the §4.3
// ownership table registered for its source: the primary tuple and the
// dependent rows are those the table's inverse gives the accession.
func (w *Web) Object(ref metadata.ObjectRef, owners *discovery.Owners) (*ObjectView, error) {
	sd := w.sources[strings.ToLower(ref.Source)]
	if sd == nil || owners == nil {
		return nil, fmt.Errorf("objectweb: unknown source %q", ref.Source)
	}
	pr := sd.db.Relation(sd.structure.Primary)
	own := owners.Owned(pr.Name, ref.Accession)
	if len(own) == 0 {
		return nil, fmt.Errorf("objectweb: no object %q in %s", ref.Accession, ref.Source)
	}
	view := &ObjectView{
		Ref:    metadata.ObjectRef{Source: sd.db.Name, Relation: pr.Name, Accession: ref.Accession},
		Fields: fields(pr, own[0]),
	}
	// Relationship 1: same-relation neighbors.
	if pos, ok := sd.accPos[ref.Accession]; ok {
		if pos > 0 {
			view.PrevAccession = sd.accOrder[pos-1]
		}
		if pos+1 < len(sd.accOrder) {
			view.NextAccession = sd.accOrder[pos+1]
		}
	}
	// Relationship 2: dependent secondary objects, the §4.3 ownership
	// inverted.
	view.Annotations = annotations(sd, owners, ref.Accession)
	// Relationships 3 and 4: repository links.
	for _, l := range w.repo.LinksOf(view.Ref) {
		if l.Type == metadata.LinkDuplicate {
			view.Duplicates = append(view.Duplicates, l)
		} else {
			view.Linked = append(view.Linked, l)
		}
	}
	metadata.SortLinks(view.Duplicates)
	metadata.SortLinks(view.Linked)
	return view, nil
}

// maxAnnotationRows caps dependent rows per relation in a view.
const maxAnnotationRows = 32

// annotations lists the rows owner owns in every relation with a §4.3
// path, in relation name order: the first maxAnnotationRows of each, in
// tuple order. A row keeps at most 16 owners (discovery.OwnersOf), so a
// row owned by more objects shows on its first 16 owners' views only.
func annotations(sd *sourceData, owners *discovery.Owners, owner string) []Annotation {
	targets := make([]string, 0, len(sd.structure.Paths))
	for relName, paths := range sd.structure.Paths {
		if len(paths) > 0 {
			targets = append(targets, relName)
		}
	}
	sort.Strings(targets)
	var out []Annotation
	for _, relName := range targets {
		r := sd.db.Relation(relName)
		if r == nil {
			continue
		}
		own := owners.Owned(relName, owner)
		for _, t := range own[:min(len(own), maxAnnotationRows)] {
			out = append(out, Annotation{Relation: r.Name, Fields: fields(r, t)})
		}
	}
	return out
}

// fields maps the column names of r, lower-cased, to the non-null values
// of tuple t.
func fields(r *rel.Relation, t int32) map[string]string {
	out := make(map[string]string)
	for i, c := range r.Schema.Columns {
		if v := r.Tuples[t][i]; !v.IsNull() {
			out[strings.ToLower(c.Name)] = v.AsString()
		}
	}
	return out
}

// Crawl walks the link graph breadth-first from start, following all link
// types, up to maxDepth hops — the "specialized search engine can crawl
// the links" behaviour of §1. It returns objects in visit order.
func (w *Web) Crawl(start metadata.ObjectRef, maxDepth int) []metadata.ObjectRef {
	type qitem struct {
		ref   metadata.ObjectRef
		depth int
	}
	visited := map[string]bool{start.Key(): true}
	queue := []qitem{{start, 0}}
	var out []metadata.ObjectRef
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur.ref)
		if cur.depth >= maxDepth {
			continue
		}
		var nbrs []metadata.ObjectRef
		for _, l := range w.repo.LinksOf(cur.ref) {
			other := l.To
			if other.Key() == cur.ref.Key() {
				other = l.From
			}
			nbrs = append(nbrs, other)
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Key() < nbrs[j].Key() })
		for _, n := range nbrs {
			if !visited[n.Key()] {
				visited[n.Key()] = true
				queue = append(queue, qitem{n, cur.depth + 1})
			}
		}
	}
	return out
}

// PathRankResult explains the ranking of one object pair.
type PathRankResult struct {
	Paths int
	// Score sums 1/length over distinct simple paths, weighted by the
	// product of link confidences along the path — the "number,
	// consistency, and length of different paths" criterion of [BLM+04].
	Score float64
	// ShortestLen is the length of the shortest connecting path (0 when
	// unconnected).
	ShortestLen int
}

// PathRank scores the connection strength between two objects over the
// link graph, exploring simple paths up to maxLen edges.
func (w *Web) PathRank(a, b metadata.ObjectRef, maxLen int) PathRankResult {
	if maxLen <= 0 {
		maxLen = 3
	}
	var res PathRankResult
	target := b.Key()
	visited := map[string]bool{a.Key(): true}
	var dfs func(cur metadata.ObjectRef, depth int, conf float64)
	dfs = func(cur metadata.ObjectRef, depth int, conf float64) {
		if depth >= maxLen {
			return
		}
		for _, l := range w.repo.LinksOf(cur) {
			other := l.To
			if other.Key() == cur.Key() {
				other = l.From
			}
			c := conf * clamp01(l.Confidence)
			if other.Key() == target {
				res.Paths++
				plen := depth + 1
				res.Score += c / float64(plen)
				if res.ShortestLen == 0 || plen < res.ShortestLen {
					res.ShortestLen = plen
				}
				continue
			}
			if visited[other.Key()] {
				continue
			}
			visited[other.Key()] = true
			dfs(other, depth+1, c)
			delete(visited, other.Key())
		}
	}
	dfs(a, 0, 1)
	return res
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RankRelated returns the objects best connected to start, ordered by
// PathRank score — the ranked "related objects" view.
func (w *Web) RankRelated(start metadata.ObjectRef, maxLen, limit int) []ScoredRef {
	// Collect candidates within maxLen hops via crawl, then rank each.
	cands := w.Crawl(start, maxLen)
	var out []ScoredRef
	for _, c := range cands {
		if c.Key() == start.Key() {
			continue
		}
		r := w.PathRank(start, c, maxLen)
		out = append(out, ScoredRef{Ref: c, Score: r.Score, Paths: r.Paths})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ref.Key() < out[j].Ref.Key()
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ScoredRef is one ranked related object.
type ScoredRef struct {
	Ref   metadata.ObjectRef
	Score float64
	Paths int
}
