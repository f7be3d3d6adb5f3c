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
	// accIdx/accOrder support same-relation navigation.
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
	sd := &sourceData{db: db, structure: s, accPos: make(map[string]int)}
	pr := db.Relation(s.Primary)
	if pr == nil {
		return nil, fmt.Errorf("objectweb: source %q: missing primary relation %q", db.Name, s.Primary)
	}
	ai := pr.Schema.Index(s.PrimaryAccession)
	if ai < 0 {
		return nil, fmt.Errorf("objectweb: source %q: missing accession column %q", db.Name, s.PrimaryAccession)
	}
	for _, t := range pr.Tuples {
		if t[ai].IsNull() {
			continue
		}
		sd.accOrder = append(sd.accOrder, t[ai].AsString())
	}
	sort.Strings(sd.accOrder)
	for i, a := range sd.accOrder {
		sd.accPos[a] = i
	}
	return &Prepared{key: strings.ToLower(db.Name), sd: sd}, nil
}

// PrepareAppend builds the browse data for a registered source grown by a
// batch of appended primary objects: the added accessions are merged into
// a fresh sorted order while the database and structure pointers are
// shared with the installed sourceData — appended relations become
// visible through the shared database when the caller publishes its
// append branches. Like Prepare this only reads w (callers serialize
// integrations, so the read of w.sources races with nothing); Install
// publishes the result under the caller's write lock.
func (w *Web) PrepareAppend(source string, added []string) (*Prepared, error) {
	key := strings.ToLower(source)
	old := w.sources[key]
	if old == nil {
		return nil, fmt.Errorf("objectweb: append to unknown source %q", source)
	}
	sd := &sourceData{
		db:        old.db,
		structure: old.structure,
		accOrder:  make([]string, 0, len(old.accOrder)+len(added)),
		accPos:    make(map[string]int, len(old.accOrder)+len(added)),
	}
	sd.accOrder = append(sd.accOrder, old.accOrder...)
	for _, a := range added {
		if a != "" {
			sd.accOrder = append(sd.accOrder, a)
		}
	}
	sort.Strings(sd.accOrder)
	for i, a := range sd.accOrder {
		sd.accPos[a] = i
	}
	return &Prepared{key: key, sd: sd}, nil
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

// Object assembles the browse view of one object.
func (w *Web) Object(ref metadata.ObjectRef) (*ObjectView, error) {
	sd := w.sources[strings.ToLower(ref.Source)]
	if sd == nil {
		return nil, fmt.Errorf("objectweb: unknown source %q", ref.Source)
	}
	pr := sd.db.Relation(sd.structure.Primary)
	ai := pr.Schema.Index(sd.structure.PrimaryAccession)
	tIdx := lookupAccession(pr, ai, sd.structure.PrimaryAccession, ref.Accession)
	if tIdx < 0 {
		return nil, fmt.Errorf("objectweb: no object %q in %s", ref.Accession, ref.Source)
	}
	view := &ObjectView{
		Ref:    metadata.ObjectRef{Source: sd.db.Name, Relation: pr.Name, Accession: ref.Accession},
		Fields: make(map[string]string),
	}
	for i, c := range pr.Schema.Columns {
		if pr.Tuples[tIdx][i].IsNull() {
			continue
		}
		view.Fields[strings.ToLower(c.Name)] = pr.Tuples[tIdx][i].AsString()
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
	// Relationship 2: dependent secondary objects via the §4.3 paths.
	view.Annotations = w.annotations(sd, tIdx)
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

// lookupAccession finds the position of the primary tuple whose
// accession column renders as acc: an O(1) probe of the column's hash
// index when the integration pipeline built one, a scan otherwise. The
// stored value may be typed (numeric accessions parse as integers), so
// the probe tries the parsed value and falls back to the raw string.
func lookupAccession(pr *rel.Relation, ai int, column, acc string) int {
	candidates := []rel.Value{rel.Parse(acc)}
	if s := rel.Str(acc); s.Key() != candidates[0].Key() {
		candidates = append(candidates, s)
	}
	if ix := pr.HashIndex(column); ix != nil {
		for _, v := range candidates {
			if positions := ix.Lookup(v); len(positions) > 0 {
				return positions[0]
			}
		}
		return -1
	}
	for i, t := range pr.Tuples {
		if !t[ai].IsNull() && t[ai].AsString() == acc {
			return i
		}
	}
	return -1
}

// maxAnnotationRows caps dependent rows per relation in a view.
const maxAnnotationRows = 32

// annotations walks each stored path forward from the primary tuple and
// collects the joined dependent rows.
func (w *Web) annotations(sd *sourceData, primaryTupleIdx int) []Annotation {
	var out []Annotation
	targets := make([]string, 0, len(sd.structure.Paths))
	for relName := range sd.structure.Paths {
		targets = append(targets, relName)
	}
	sort.Strings(targets)
	for _, relName := range targets {
		paths := sd.structure.Paths[relName]
		if len(paths) == 0 {
			continue
		}
		rows := w.walkForward(sd, paths[0], primaryTupleIdx)
		target := sd.db.Relation(relName)
		if target == nil {
			continue
		}
		for _, ti := range rows {
			a := Annotation{Relation: target.Name, Fields: make(map[string]string)}
			for i, c := range target.Schema.Columns {
				v := target.Tuples[ti][i]
				if v.IsNull() {
					continue
				}
				a.Fields[strings.ToLower(c.Name)] = v.AsString()
			}
			out = append(out, a)
		}
	}
	return out
}

// walkForward follows one §4.3 path from a primary tuple to the target
// relation, returning matching tuple positions there.
func (w *Web) walkForward(sd *sourceData, path discovery.Path, primaryTupleIdx int) []int {
	curRel := sd.db.Relation(sd.structure.Primary)
	frontier := []int{primaryTupleIdx}
	for _, step := range path.Steps {
		var nextRelName, curCol, nextCol string
		if step.Forward {
			// The path moved referencing -> referenced; walking from the
			// primary side we are at the referencing relation... no: the
			// path starts AT the primary. A Forward step means the edge
			// points from the relation closer to the primary to the next
			// one (closer relation holds the FK).
			curCol = step.Edge.From.FromColumn
			nextRelName = step.Edge.From.ToRelation
			nextCol = step.Edge.From.ToColumn
		} else {
			curCol = step.Edge.From.ToColumn
			nextRelName = step.Edge.From.FromRelation
			nextCol = step.Edge.From.FromColumn
		}
		ci := curRel.Schema.Index(curCol)
		nextRel := sd.db.Relation(nextRelName)
		if ci < 0 || nextRel == nil {
			return nil
		}
		ni := nextRel.Schema.Index(nextCol)
		if ni < 0 {
			return nil
		}
		// Join frontier tuples to the next relation, probing its hash
		// index when the pipeline built one (the FK endpoints of every
		// discovered path are indexed during PrepareAdd) instead of
		// scanning every tuple.
		want := make(map[string]bool)
		var probes []rel.Value
		for _, ti := range frontier {
			v := curRel.Tuples[ti][ci]
			if !v.IsNull() && !want[v.Key()] {
				want[v.Key()] = true
				probes = append(probes, v)
			}
		}
		var next []int
		if idx := nextRel.HashIndex(nextCol); idx != nil {
			for _, v := range probes {
				next = append(next, idx.Lookup(v)...)
			}
			// Restore tuple order (map iteration is unordered) so views
			// match the scan path, then apply the same cap.
			sort.Ints(next)
			if len(next) > maxAnnotationRows {
				next = next[:maxAnnotationRows]
			}
		} else {
			for ti, t := range nextRel.Tuples {
				if t[ni].IsNull() {
					continue
				}
				if want[t[ni].Key()] {
					next = append(next, ti)
					if len(next) >= maxAnnotationRows {
						break
					}
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
		curRel = nextRel
	}
	return frontier
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
