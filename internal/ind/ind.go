// Package ind discovers unary inclusion dependencies between attributes —
// ALADIN's mechanism for guessing foreign-key relationships when no
// integrity constraints are declared (§4.2, citing [KM92] and [MLP02]).
//
// The paper's rule: "all unique attributes are considered as potential
// targets ... and all attributes are considered as potential sources. If
// the values of a potential source are a true subset of the values of a
// potential target, we assume a 1:N relationship ... If the values of a
// potential source are the same set as the values of a potential target,
// we assume a 1:1 relationship."
package ind

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/rel"
)

// Cardinality classifies a discovered relationship.
type Cardinality int

const (
	// OneToN marks a proper-subset inclusion (source values ⊂ target).
	OneToN Cardinality = iota
	// OneToOne marks set equality of source and target values.
	OneToOne
)

// String renders the cardinality as in the paper.
func (c Cardinality) String() string {
	if c == OneToOne {
		return "1:1"
	}
	return "1:N"
}

// IND is one discovered inclusion dependency: FromRelation.FromColumn's
// values are contained in ToRelation.ToColumn's values.
type IND struct {
	From        rel.ForeignKey
	Cardinality Cardinality
	// Containment is |src ∩ tgt| / |src| (1.0 for exact dependencies).
	Containment float64
	// Declared is true when the dependency came from the data dictionary
	// (a declared FOREIGN KEY) rather than from data analysis.
	Declared bool
}

// String renders "a.x -> b.y [1:N, cont=1.00]".
func (d IND) String() string {
	src := "data"
	if d.Declared {
		src = "declared"
	}
	return fmt.Sprintf("%s [%s, cont=%.2f, %s]", d.From.String(), d.Cardinality, d.Containment, src)
}

// Options configures discovery.
type Options struct {
	// DisableSignaturePruning turns off the min-hash pre-filter (for the
	// pruning ablation of experiment E10).
	DisableSignaturePruning bool
	// Workers bounds the worker pool checking candidate attribute pairs
	// concurrently. Values <= 1 check serially.
	Workers int
}

// minSourceDistinct skips source attributes with fewer distinct values
// (§4.4: "attributes with few distinct values should be excluded").
// Purely numeric attributes stay sources: surrogate-key FK discovery
// inside one source needs them, and link discovery's own pruning keeps
// them out across sources (§4.4).
const minSourceDistinct = 2

// Stats reports the work performed, for the pruning experiments.
type Stats struct {
	PairsConsidered int // candidate (source, target) attribute pairs
	PairsPruned     int // rejected by the signature pre-filter
	PairsChecked    int // exact set-containment checks executed
}

// DiscoverContext finds the exact inclusion dependencies between
// attributes of the relations in db, using precomputed profiles (keyed by
// profile.Key).
// Declared foreign keys from relation metadata are included first and
// never duplicated by data analysis. When ctx is canceled the partial
// result is discarded and ctx.Err() is returned.
func DiscoverContext(ctx context.Context, db *rel.Database, profs map[string]*profile.ColumnProfile, opts Options) ([]IND, Stats, error) {
	var out []IND
	var stats Stats
	declared := make(map[string]bool)
	for _, r := range db.Relations() {
		for _, fk := range r.ForeignKeys {
			toCol := fk.ToColumn
			if toCol == "" {
				// REFERENCES t without a column names t's primary key.
				if tgt := db.Relation(fk.ToRelation); tgt != nil {
					toCol = tgt.PrimaryKey
				}
			}
			if toCol == "" {
				continue
			}
			d := IND{
				From: rel.ForeignKey{
					FromRelation: fk.FromRelation, FromColumn: fk.FromColumn,
					ToRelation: fk.ToRelation, ToColumn: toCol,
				},
				Cardinality: OneToN,
				Containment: 1.0,
				Declared:    true,
			}
			out = append(out, d)
			declared[indKey(d.From)] = true
		}
	}

	// Candidate targets: unique attributes (the paper's rule).
	type colRef struct {
		relation *rel.Relation
		column   string
		prof     *profile.ColumnProfile
	}
	var targets, sources []colRef
	for _, r := range db.Relations() {
		for _, c := range r.Schema.Columns {
			p := profs[profile.Key(r.Name, c.Name)]
			if p == nil {
				return nil, stats, fmt.Errorf("ind: missing profile for %s.%s", r.Name, c.Name)
			}
			ref := colRef{relation: r, column: c.Name, prof: p}
			if p.Unique {
				targets = append(targets, ref)
			}
			if p.Distinct >= minSourceDistinct {
				sources = append(sources, ref)
			}
		}
	}

	// Candidate pair generation stays serial (it is cheap and updates
	// stats); the exact set-containment checks — the expensive part — run
	// on the worker pool, collecting into indexed slots so the discovered
	// dependencies keep the serial order.
	type pair struct {
		src, tgt colRef
		fk       rel.ForeignKey
	}
	var pairs []pair
	for _, src := range sources {
		for _, tgt := range targets {
			if strings.EqualFold(src.relation.Name, tgt.relation.Name) && strings.EqualFold(src.column, tgt.column) {
				continue
			}
			stats.PairsConsidered++
			fk := rel.ForeignKey{
				FromRelation: src.relation.Name, FromColumn: src.column,
				ToRelation: tgt.relation.Name, ToColumn: tgt.column,
			}
			if declared[indKey(fk)] {
				continue
			}
			// Cheap pre-filters: a source with more distinct values than
			// the target can never be contained; the signature containment
			// estimate rejects clearly disjoint pairs.
			if src.prof.Distinct > tgt.prof.Distinct {
				stats.PairsPruned++
				continue
			}
			if !opts.DisableSignaturePruning {
				est := profile.EstimateContainment(src.prof, tgt.prof)
				// The estimator is noisy; only prune clear rejections.
				if est < 0.4 {
					stats.PairsPruned++
					continue
				}
			}
			pairs = append(pairs, pair{src: src, tgt: tgt, fk: fk})
		}
	}
	stats.PairsChecked = len(pairs)

	type checkResult struct {
		d   IND
		ok  bool
		err error
	}
	results := make([]checkResult, len(pairs))
	if err := parallel.For(ctx, opts.Workers, len(pairs), func(i int) {
		p := pairs[i]
		contained, equal, err := containment(p.src.relation, p.src.column, p.src.prof, p.tgt.relation, p.tgt.column, p.tgt.prof)
		if err != nil {
			results[i].err = err
			return
		}
		if !contained {
			return
		}
		d := IND{From: p.fk, Containment: 1.0, Cardinality: OneToN}
		if equal {
			d.Cardinality = OneToOne
		}
		results[i] = checkResult{d: d, ok: true}
	}); err != nil {
		return nil, stats, err
	}
	for _, res := range results {
		if res.err != nil {
			return nil, stats, res.err
		}
		if res.ok {
			out = append(out, res.d)
		}
	}
	return out, stats, nil
}

// containment reports whether src's distinct values are a non-empty
// subset of tgt's, and whether the two sets are equal, preferring the
// profiles' cached distinct sets and falling back to a scan.
func containment(srcRel *rel.Relation, srcCol string, srcProf *profile.ColumnProfile,
	tgtRel *rel.Relation, tgtCol string, tgtProf *profile.ColumnProfile) (contained, equal bool, err error) {

	srcSet := srcProf.DistinctValues
	if srcSet == nil {
		if srcSet, err = srcRel.DistinctValues(srcCol); err != nil {
			return false, false, err
		}
	}
	tgtSet := tgtProf.DistinctValues
	if tgtSet == nil {
		if tgtSet, err = tgtRel.DistinctValues(tgtCol); err != nil {
			return false, false, err
		}
	}
	if len(srcSet) == 0 {
		return false, false, nil
	}
	for k := range srcSet {
		if _, ok := tgtSet[k]; !ok {
			return false, false, nil
		}
	}
	return true, len(srcSet) == len(tgtSet), nil
}

func indKey(fk rel.ForeignKey) string {
	return strings.ToLower(fk.FromRelation) + "." + strings.ToLower(fk.FromColumn) +
		">" + strings.ToLower(fk.ToRelation) + "." + strings.ToLower(fk.ToColumn)
}
