// Package discovery implements ALADIN's steps 2 and 3: the discovery of
// primary relations (§4.2) and of secondary relations (§4.3).
//
// The §4.2 pipeline, reproduced faithfully:
//
//  1. Detect "unique" attributes by checking every attribute without a
//     declared UNIQUE constraint.
//  2. Mark accession-number candidates: unique attributes whose every
//     value contains at least one non-digit character, is at least four
//     characters long, and whose value lengths differ by at most 20%.
//     Each table keeps at most one candidate — the one with the longer
//     average field length.
//  3. Deduce foreign-key relationships and cardinalities (delegated to
//     package ind).
//  4. Choose as primary relation the table with the highest in-degree of
//     all tables containing an accession-number candidate.
//
// §4.3 then computes the paths from the primary relation to every other
// relation "using transitivity of relationships, ignoring direction and
// cardinality", storing all paths found.
//
// The paths answer one question for the later steps: which primary
// objects own a tuple of a dependent relation? OwnersOf answers it for
// every tuple at once, in an ownership table, beside its inverse, the
// tuples each object owns (Owners.Owned: §4.6's dependency relationship,
// which browse shows). The primary relation owns itself. Any other relation is reached along its shortest path,
// Paths[r][0], walked forward from the primary relation. A tuple keeps
// at most 16 owners, in primary tuple order along the path. Ownership is
// computed per batch: dependent rows must arrive in the batch of their
// primary rows, and a source's table grows by each batch's table
// (Owners.Append), so one batch never resolves to the objects of another
// even when both reuse surrogate ids. The table remembers its batches'
// sizes (Owners.Batches), from which OwnersOfBatches rebuilds it over
// the whole source's relations.
package discovery

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ind"
	"repro/internal/profile"
	"repro/internal/rel"
)

// Options configures structural analysis: only IND discovery's switches.
// The §4.2 and §4.3 rules are the paper's, fixed below.
type Options struct {
	IND ind.Options
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options { return Options{} }

// The §4.2 accession-candidate rules: a candidate is unique, every value
// has a non-digit, no value is shorter than accMinLength ("the shortest
// accession numbers we are aware of, used in the PDB"), and the lengths
// differ by at most accMaxLenSpread of the longest (values may "differ by
// at most 20 percent in length").
const (
	accMinLength    = 4
	accMaxLenSpread = 0.20
)

// The §4.3 paths: at most maxPathsPerRelation alternative paths of at
// most maxPathLen edges are stored per relation.
const (
	maxPathLen          = 4
	maxPathsPerRelation = 8
)

// Candidate is an accession-number candidate attribute.
type Candidate struct {
	Relation string
	Column   string
	MeanLen  float64
}

// PathStep is one traversed relationship edge; Forward indicates whether
// the edge was traversed in FK direction (from referencing to referenced).
type PathStep struct {
	Edge    ind.IND
	Forward bool
}

// Path is a sequence of steps from the primary relation to a target.
type Path struct {
	Target string
	Steps  []PathStep
}

// String renders "primary -> a -> b". A Forward step moves from the
// referencing table to the referenced table.
func (p Path) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		if i == 0 {
			if s.Forward {
				sb.WriteString(s.Edge.From.FromRelation)
			} else {
				sb.WriteString(s.Edge.From.ToRelation)
			}
		}
		sb.WriteString(" -> ")
		if s.Forward {
			sb.WriteString(s.Edge.From.ToRelation)
		} else {
			sb.WriteString(s.Edge.From.FromRelation)
		}
	}
	return sb.String()
}

// Structure is the discovered internal structure of one data source: the
// output of steps 2 and 3, and the input to link discovery.
type Structure struct {
	Source string

	// UniqueColumns lists attributes found unique (relation -> columns).
	UniqueColumns map[string][]string
	// Candidates holds the single accession-number candidate per relation
	// (relation name, lower-cased → candidate).
	Candidates map[string]Candidate
	// INDs are all discovered/declared inclusion dependencies.
	INDs []ind.IND
	// ForeignKeys is the guessed FK graph: for every source attribute the
	// single most plausible target (highest target coverage). Raw
	// inclusion dependencies over-connect the schema because surrogate-key
	// integer ranges nest (1..n ⊆ 1..m); an FK attribute references
	// exactly one table, so each source attribute votes once. This is the
	// disambiguation the paper alludes to in §4.2's dictionary-table
	// discussion (chooseForeignKeys).
	ForeignKeys []ind.IND
	// INDStats reports discovery work for performance experiments.
	INDStats ind.Stats
	// InDegree counts incoming IND edges per relation.
	InDegree map[string]int
	// Primary is the chosen primary relation ("" if none found).
	Primary string
	// PrimaryAccession is the accession column of the primary relation.
	PrimaryAccession string
	// PrimaryScores records the in-degree of each candidate table.
	PrimaryScores map[string]float64
	// Paths maps each non-primary relation to the stored join paths from
	// the primary relation (§4.3).
	Paths map[string][]Path
	// Unreachable lists relations with no path from the primary relation
	// (the "non-overlapping partitions" case the paper says it has yet to
	// encounter).
	Unreachable []string
}

// Analyze performs steps 2 and 3 on one imported source.
func Analyze(db *rel.Database, profs map[string]*profile.ColumnProfile, opts Options) (*Structure, error) {
	return AnalyzeContext(context.Background(), db, profs, opts)
}

// AnalyzeContext is Analyze with cancellation: when ctx is canceled
// during IND discovery the partial result is discarded and ctx.Err() is
// returned.
func AnalyzeContext(ctx context.Context, db *rel.Database, profs map[string]*profile.ColumnProfile, opts Options) (*Structure, error) {
	s := &Structure{
		Source:        db.Name,
		UniqueColumns: make(map[string][]string),
		Candidates:    make(map[string]Candidate),
		InDegree:      make(map[string]int),
		PrimaryScores: make(map[string]float64),
		Paths:         make(map[string][]Path),
	}
	// Step 2a: unique attributes.
	for _, r := range db.Relations() {
		for _, c := range r.Schema.Columns {
			p := profs[profile.Key(r.Name, c.Name)]
			if p == nil {
				return nil, fmt.Errorf("discovery: missing profile for %s.%s", r.Name, c.Name)
			}
			if p.Unique {
				s.UniqueColumns[lower(r.Name)] = append(s.UniqueColumns[lower(r.Name)], c.Name)
			}
		}
	}
	// Step 2b: accession-number candidates.
	for _, r := range db.Relations() {
		best, ok := accessionCandidate(r, profs)
		if ok {
			s.Candidates[lower(r.Name)] = best
		}
	}
	// Step 2c: foreign keys / cardinalities.
	inds, stats, err := ind.DiscoverContext(ctx, db, profs, opts.IND)
	if err != nil {
		return nil, err
	}
	s.INDs = inds
	s.INDStats = stats
	s.ForeignKeys = chooseForeignKeys(inds, profs)
	for _, d := range s.ForeignKeys {
		s.InDegree[lower(d.From.ToRelation)]++
	}
	// Step 2d: primary relation selection.
	s.Primary, s.PrimaryScores = choosePrimary(db, s)
	if s.Primary != "" {
		s.PrimaryAccession = s.Candidates[lower(s.Primary)].Column
	}
	// Step 3: secondary-object paths.
	if s.Primary != "" {
		s.computePaths(db)
	}
	return s, nil
}

// accessionCandidate applies the rules to every column of r and picks at
// most one candidate ("only the one with the longer average field length
// is considered").
func accessionCandidate(r *rel.Relation, profs map[string]*profile.ColumnProfile) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range r.Schema.Columns {
		p := profs[profile.Key(r.Name, c.Name)]
		if p == nil || p.Distinct == 0 {
			continue
		}
		if !p.Unique || !p.AllValuesHaveNonDigit || p.MinLen < accMinLength || p.LenSpreadRatio > accMaxLenSpread {
			continue
		}
		// Exclude obvious free-text fields (an accession is a single
		// token) and sequence fields (long fixed-alphabet strings are
		// typed as sequences by the profiler, §4.4).
		if p.MeanTokens > 1.0 || p.IsSequenceField() {
			continue
		}
		if !found || p.MeanLen > best.MeanLen {
			best = Candidate{Relation: r.Name, Column: c.Name, MeanLen: p.MeanLen}
			found = true
		}
	}
	return best, found
}

// chooseForeignKeys reduces the raw IND set to a guessed FK graph. Raw
// inclusion dependencies over-connect life-science schemas because
// parser-generated surrogate-key ranges nest (1..n ⊆ 1..m) — the very
// confusion §4.2 discusses for dictionary tables: without refinement the
// primary relation can be misidentified. Two refinements, both standard
// in the FK-discovery literature that followed this paper:
//
//  1. Evidence filter: a candidate edge survives only with name evidence
//     (source column named like the target column or target relation) or
//     very high coverage of the target's value set (>= 0.9).
//  2. Single vote: an FK attribute references exactly one table, so per
//     source attribute only the best surviving edge is kept, scored by
//     coverage plus a name-evidence bonus.
//
// Declared FKs always win for their source attribute.
func chooseForeignKeys(inds []ind.IND, profs map[string]*profile.ColumnProfile) []ind.IND {
	const (
		minBlindCoverage = 0.9
		nameBonus        = 0.5
		// pkBonus favors targets that look like their own relation's
		// primary key (FKs reference PKs): column name embeds the target
		// relation's name, or is literally "id".
		pkBonus = 0.25
	)
	type scoredIND struct {
		d       ind.IND
		score   float64
		tgtSize int
	}
	best := make(map[string]scoredIND)
	var order []string
	for _, d := range inds {
		if !d.Declared {
			// Intra-relation edges carry no structural information for
			// primary-relation selection or secondary paths.
			if lower(d.From.FromRelation) == lower(d.From.ToRelation) {
				continue
			}
			// A relation's own PK-named column being contained elsewhere
			// is almost always the mirror image of a real FK pointing the
			// other way (1:1 set equality produces both directions); the
			// kept direction is the one whose source is NOT its own PK.
			if pkLike(d.From.FromColumn, d.From.FromRelation) {
				continue
			}
		}
		srcKey := lower(d.From.FromRelation) + "." + lower(d.From.FromColumn)
		srcProf := profs[profile.Key(d.From.FromRelation, d.From.FromColumn)]
		tgtProf := profs[profile.Key(d.From.ToRelation, d.From.ToColumn)]
		cov := 0.0
		tgtSize := 0
		if srcProf != nil && tgtProf != nil && tgtProf.Distinct > 0 {
			inter := d.Containment * float64(srcProf.Distinct)
			cov = inter / float64(tgtProf.Distinct)
			tgtSize = tgtProf.Distinct
		}
		hasName := nameEvidence(d.From)
		if !d.Declared && !hasName && cov < minBlindCoverage {
			continue
		}
		score := cov
		if hasName {
			score += nameBonus
		}
		if pkLike(d.From.ToColumn, d.From.ToRelation) {
			score += pkBonus
		}
		cur, seen := best[srcKey]
		if !seen {
			order = append(order, srcKey)
			best[srcKey] = scoredIND{d, score, tgtSize}
			continue
		}
		if cur.d.Declared {
			continue // declared edges are never displaced
		}
		replace := false
		switch {
		case d.Declared:
			replace = true
		case score > cur.score:
			replace = true
		case score == cur.score && tgtSize < cur.tgtSize:
			replace = true
		case score == cur.score && tgtSize == cur.tgtSize &&
			lower(d.From.ToRelation) < lower(cur.d.From.ToRelation):
			replace = true
		}
		if replace {
			best[srcKey] = scoredIND{d, score, tgtSize}
		}
	}
	out := make([]ind.IND, 0, len(best))
	for _, k := range order {
		out = append(out, best[k].d)
	}
	return out
}

// pkLike reports whether a column name looks like its own relation's
// primary key: literally "id", or embedding the relation's name (e.g.
// "bioentry_id" in relation "bioentry").
func pkLike(column, relation string) bool {
	c := lower(column)
	return c == "id" || strings.Contains(c, lower(relation))
}

// nameEvidence reports whether the source column's name suggests the
// target: equal column names, or the source column embeds the target
// relation's name (e.g. "bioentry_id" referencing relation "bioentry").
func nameEvidence(fk rel.ForeignKey) bool {
	src := lower(fk.FromColumn)
	if src == lower(fk.ToColumn) {
		return true
	}
	return strings.Contains(src, lower(fk.ToRelation))
}

// choosePrimary scores every accession-candidate table by its in-degree
// and returns the winner. Ties break toward higher cardinality, then
// lexicographic name, for determinism.
func choosePrimary(db *rel.Database, s *Structure) (string, map[string]float64) {
	scores := make(map[string]float64)
	if len(s.Candidates) == 0 {
		return "", scores
	}
	for key := range s.Candidates {
		scores[key] = float64(s.InDegree[key])
	}
	type scored struct {
		name  string
		score float64
		card  int
	}
	var list []scored
	for key, sc := range scores {
		card := 0
		if r := db.Relation(key); r != nil {
			card = r.Cardinality()
		}
		list = append(list, scored{key, sc, card})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		if list[i].card != list[j].card {
			return list[i].card > list[j].card
		}
		return list[i].name < list[j].name
	})
	winner := list[0].name
	if r := db.Relation(winner); r != nil {
		return r.Name, scores
	}
	return winner, scores
}

// computePaths runs a bounded DFS over the undirected FK graph from the
// primary relation, collecting up to maxPathsPerRelation simple paths of
// length <= maxPathLen per relation (§4.3).
func (s *Structure) computePaths(db *rel.Database) {
	type edge struct {
		d       ind.IND
		forward bool // traversal direction: forward = from source side to target side
		next    string
	}
	adj := make(map[string][]edge)
	for _, d := range s.ForeignKeys {
		from, to := lower(d.From.FromRelation), lower(d.From.ToRelation)
		// Traversing from the referencing table to the referenced table
		// follows the FK direction (forward).
		adj[from] = append(adj[from], edge{d: d, forward: true, next: to})
		adj[to] = append(adj[to], edge{d: d, forward: false, next: from})
	}
	start := lower(s.Primary)
	reached := map[string]bool{start: true}
	var dfs func(node string, steps []PathStep, visited map[string]bool)
	dfs = func(node string, steps []PathStep, visited map[string]bool) {
		if len(steps) > 0 {
			if len(s.Paths[node]) < maxPathsPerRelation {
				cp := make([]PathStep, len(steps))
				copy(cp, steps)
				s.Paths[node] = append(s.Paths[node], Path{Target: node, Steps: cp})
				reached[node] = true
			}
		}
		if len(steps) >= maxPathLen {
			return
		}
		for _, e := range adj[node] {
			if visited[e.next] {
				continue
			}
			visited[e.next] = true
			// PathStep.Forward records whether we moved WITH the FK
			// direction (from the referencing to the referenced table).
			step := PathStep{Edge: e.d, Forward: e.forward}
			dfs(e.next, append(steps, step), visited)
			delete(visited, e.next)
		}
	}
	dfs(start, nil, map[string]bool{start: true})
	for _, r := range db.Relations() {
		if !reached[lower(r.Name)] {
			s.Unreachable = append(s.Unreachable, r.Name)
		}
	}
	sort.Strings(s.Unreachable)
	// Deterministic path order: shortest first.
	for k := range s.Paths {
		sort.SliceStable(s.Paths[k], func(i, j int) bool {
			return len(s.Paths[k][i].Steps) < len(s.Paths[k][j].Steps)
		})
	}
}

func lower(s string) string { return strings.ToLower(s) }
