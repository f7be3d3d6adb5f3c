// Package ontology provides term-hierarchy utilities over integrated
// controlled vocabularies. §4.4 notes that ontology values "make
// excellent links ... provided that the ontologies are themselves
// integrated as data sources"; because ontologies are hierarchies
// (Gene Ontology is_a relations), two objects annotated with *different*
// terms are still related when the terms share a close ancestor. This
// package builds the hierarchy from an imported ontology source and
// offers ancestor closures and a depth-based term-similarity measure
// (Wu-Palmer style) for hierarchy-aware link derivation.
package ontology

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rel"
)

// Hierarchy is a DAG of ontology terms keyed by accession.
type Hierarchy struct {
	parents  map[string][]string
	children map[string][]string
	names    map[string]string
	// depth memoizes the minimal distance from a root.
	depth map[string]int
}

// New creates an empty hierarchy.
func New() *Hierarchy {
	return &Hierarchy{
		parents:  make(map[string][]string),
		children: make(map[string][]string),
		names:    make(map[string]string),
	}
}

// AddTerm registers a term accession with a display name.
func (h *Hierarchy) AddTerm(acc, name string) {
	acc = strings.TrimSpace(acc)
	if acc == "" {
		return
	}
	if _, ok := h.parents[acc]; !ok {
		h.parents[acc] = nil
	}
	if name != "" {
		h.names[acc] = name
	}
	h.depth = nil
}

// AddIsA records child is_a parent.
func (h *Hierarchy) AddIsA(child, parent string) {
	child, parent = strings.TrimSpace(child), strings.TrimSpace(parent)
	if child == "" || parent == "" || child == parent {
		return
	}
	h.AddTerm(child, "")
	h.AddTerm(parent, "")
	h.parents[child] = append(h.parents[child], parent)
	h.children[parent] = append(h.children[parent], child)
	h.depth = nil
}

// Len returns the number of known terms.
func (h *Hierarchy) Len() int { return len(h.parents) }

// Name returns a term's display name ("" if unknown).
func (h *Hierarchy) Name(acc string) string { return h.names[acc] }

// Has reports whether the term is known.
func (h *Hierarchy) Has(acc string) bool {
	_, ok := h.parents[acc]
	return ok
}

// FromRelations builds a hierarchy from an integrated ontology source:
// a term relation carrying (accession, name) plus an is_a relation
// carrying (child accession or id, parent accession or id). When the is_a
// relation stores surrogate ids, idColumn/accColumn of the term relation
// translate them.
func FromRelations(term *rel.Relation, accCol, nameCol string,
	isa *rel.Relation, childCol, parentCol string,
	termIDCol string) (*Hierarchy, error) {

	h := New()
	ai := term.Schema.Index(accCol)
	if ai < 0 {
		return nil, fmt.Errorf("ontology: term relation has no column %q", accCol)
	}
	ni := term.Schema.Index(nameCol)
	idToAcc := make(map[string]string)
	var idi int = -1
	if termIDCol != "" {
		idi = term.Schema.Index(termIDCol)
	}
	for _, t := range term.Tuples {
		if t[ai].IsNull() {
			continue
		}
		acc := t[ai].AsString()
		name := ""
		if ni >= 0 && !t[ni].IsNull() {
			name = t[ni].AsString()
		}
		h.AddTerm(acc, name)
		if idi >= 0 && !t[idi].IsNull() {
			idToAcc[t[idi].Key()] = acc
		}
	}
	if isa != nil {
		ci := isa.Schema.Index(childCol)
		pi := isa.Schema.Index(parentCol)
		if ci < 0 || pi < 0 {
			return nil, fmt.Errorf("ontology: is_a relation missing columns %q/%q", childCol, parentCol)
		}
		for _, t := range isa.Tuples {
			if t[ci].IsNull() || t[pi].IsNull() {
				continue
			}
			child, parent := t[ci].AsString(), t[pi].AsString()
			// Translate surrogate ids when a mapping exists.
			if a, ok := idToAcc[t[ci].Key()]; ok {
				child = a
			}
			if a, ok := idToAcc[t[pi].Key()]; ok {
				parent = a
			}
			h.AddIsA(child, parent)
		}
	}
	return h, nil
}

// Ancestors returns the transitive is_a closure of a term (excluding the
// term itself), sorted.
func (h *Hierarchy) Ancestors(acc string) []string {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(a string) {
		for _, p := range h.parents[a] {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(acc)
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Roots returns the terms without parents, sorted.
func (h *Hierarchy) Roots() []string {
	var out []string
	for a, ps := range h.parents {
		if len(ps) == 0 {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

func (h *Hierarchy) computeDepths() {
	if h.depth != nil {
		return
	}
	h.depth = make(map[string]int, len(h.parents))
	// BFS from all roots; cycles (malformed input) terminate because each
	// term is assigned once.
	queue := h.Roots()
	for _, r := range queue {
		h.depth[r] = 0
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range h.children[cur] {
			if _, done := h.depth[c]; !done {
				h.depth[c] = h.depth[cur] + 1
				queue = append(queue, c)
			}
		}
	}
	// Terms unreachable from any root (cycles) get depth 0.
	for a := range h.parents {
		if _, ok := h.depth[a]; !ok {
			h.depth[a] = 0
		}
	}
}

// LCA returns the deepest common ancestor of two terms ("" when none),
// considering the terms themselves as their own ancestors.
func (h *Hierarchy) LCA(a, b string) string {
	if !h.Has(a) || !h.Has(b) {
		return ""
	}
	ancA := map[string]bool{a: true}
	for _, x := range h.Ancestors(a) {
		ancA[x] = true
	}
	h.computeDepths()
	best, bestDepth := "", -1
	consider := append(h.Ancestors(b), b)
	for _, x := range consider {
		if ancA[x] && h.depth[x] > bestDepth {
			best, bestDepth = x, h.depth[x]
		}
	}
	return best
}

// Similarity computes Wu-Palmer similarity: 2*depth(lca) /
// (depth(a)+depth(b)), in [0,1]; identical terms score 1, unrelated 0.
func (h *Hierarchy) Similarity(a, b string) float64 {
	if a == b && h.Has(a) {
		return 1
	}
	lca := h.LCA(a, b)
	if lca == "" {
		return 0
	}
	h.computeDepths()
	da, db, dl := h.depth[a], h.depth[b], h.depth[lca]
	if da+db == 0 {
		return 1
	}
	return 2 * float64(dl) / float64(da+db)
}
