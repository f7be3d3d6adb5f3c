// Package metadata implements ALADIN's central metadata repository (§3):
// "it contains not only known and discovered schemata, but also
// information about primary and secondary relations, statistical metadata,
// and sample data ... a large part of storage space will be consumed by
// the discovered links on the object level."
//
// The repository also records user feedback removing false links (§6.2),
// and per-source change counters backing the re-analysis threshold policy.
package metadata

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/discovery"
	"repro/internal/profile"
)

// LinkType classifies an object-level link.
type LinkType int

const (
	// LinkXRef is an explicit cross-reference discovered in the data
	// (§4.4, "explicit links").
	LinkXRef LinkType = iota
	// LinkSequence is an implicit link from sequence homology.
	LinkSequence
	// LinkText is an implicit link from textual similarity or recognized
	// entity names.
	LinkText
	// LinkOntology is an implicit link from a shared controlled-vocabulary
	// term.
	LinkOntology
	// LinkDuplicate flags two objects as representing the same real-world
	// object (§4.5; duplicates are flagged, never merged).
	LinkDuplicate
)

// String names the link type.
func (t LinkType) String() string {
	switch t {
	case LinkXRef:
		return "xref"
	case LinkSequence:
		return "sequence"
	case LinkText:
		return "text"
	case LinkOntology:
		return "ontology"
	case LinkDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("LinkType(%d)", int(t))
}

// ObjectRef identifies a primary object: a source, its primary relation,
// and the object's accession value (the only stable public ID, §1).
type ObjectRef struct {
	Source    string
	Relation  string
	Accession string
}

// String renders "source:relation:accession".
func (r ObjectRef) String() string {
	return r.Source + ":" + r.Relation + ":" + r.Accession
}

// Key returns a canonical lower-cased key for maps.
func (r ObjectRef) Key() string {
	return strings.ToLower(r.Source) + "\x00" + strings.ToLower(r.Relation) + "\x00" + r.Accession
}

// Link is one discovered object-level link, stored with the certainty
// value the access engine uses for ranking (§4.6).
type Link struct {
	Type       LinkType
	From, To   ObjectRef
	Confidence float64
	// Method records how the link was found (e.g. "xref:dbref.ref_accession",
	// "seq:identity=0.93"), the lineage shown while browsing.
	Method string
}

// pairKey canonicalizes the undirected endpoint pair plus type.
func (l Link) pairKey() string {
	a, b := l.From.Key(), l.To.Key()
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("%d\x00%s\x00%s", l.Type, a, b)
}

// SourceMeta is everything the repository knows about one data source.
type SourceMeta struct {
	Name string
	// Seq is the registration sequence number (import order).
	Seq int
	// Structure is the output of discovery steps 2+3.
	Structure *discovery.Structure
	// Profiles holds the column statistics, reused when later sources are
	// added (§3).
	Profiles map[string]*profile.ColumnProfile
	// TupleCount snapshots the source size at analysis time.
	TupleCount int
	// ChangedTuples counts data changes since the last analysis, for the
	// §6.2 re-analysis threshold.
	ChangedTuples int
}

// Repo is the thread-safe metadata repository.
type Repo struct {
	mu      sync.RWMutex
	sources map[string]*SourceMeta
	order   []string

	links []Link
	// byObject indexes link positions by endpoint object key.
	byObject map[string][]int
	// present dedupes links by pairKey.
	present map[string]int
	// removed records user-feedback deletions (§6.2) so re-runs of
	// discovery do not resurrect known-false links; removedLinks keeps
	// the link values for persistence.
	removed      map[string]bool
	removedLinks []Link
}

// NewRepo creates an empty repository.
func NewRepo() *Repo {
	return &Repo{
		sources:  make(map[string]*SourceMeta),
		byObject: make(map[string][]int),
		present:  make(map[string]int),
		removed:  make(map[string]bool),
	}
}

// RegisterSource stores (or replaces) a source's discovered metadata.
func (r *Repo) RegisterSource(m *SourceMeta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(m.Name)
	if _, ok := r.sources[key]; !ok {
		r.order = append(r.order, key)
		m.Seq = len(r.order)
	} else {
		m.Seq = r.sources[key].Seq
	}
	r.sources[key] = m
}

// Source returns the metadata of one source, or nil.
func (r *Repo) Source(name string) *SourceMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sources[strings.ToLower(name)]
}

// Sources returns all source metadata in registration order.
func (r *Repo) Sources() []*SourceMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*SourceMeta, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.sources[k])
	}
	return out
}

// AddLink stores a link unless an equivalent link exists or the pair was
// removed by user feedback. It reports whether the link was stored.
func (r *Repo) AddLink(l Link) bool {
	stored, _, _ := r.AddLinkTracked(l)
	return stored
}

// AddLinkTracked stores a link like AddLink, additionally reporting when
// an existing equivalent link was upgraded in place to higher-confidence
// evidence, and the pre-upgrade value.
func (r *Repo) AddLinkTracked(l Link) (stored, upgraded bool, prev Link) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pk := l.pairKey()
	if !r.actsOn(pk, l) {
		return false, false, Link{}
	}
	if i, ok := r.present[pk]; ok {
		// Keep the higher-confidence evidence.
		prev = r.links[i]
		r.links[i].Confidence = l.Confidence
		r.links[i].Method = l.Method
		return false, true, prev
	}
	idx := len(r.links)
	r.links = append(r.links, l)
	r.present[pk] = idx
	r.byObject[l.From.Key()] = append(r.byObject[l.From.Key()], idx)
	r.byObject[l.To.Key()] = append(r.byObject[l.To.Key()], idx)
	return true, false, Link{}
}

// NewOrBetter returns the links of ls that AddLink would act on now: a
// link whose pair is not stored yet, or one of higher confidence than the
// stored link, which it would upgrade. Links of removed pairs, and links
// no better than the stored one, are left out — adding them would change
// nothing, now or after other links were added or removed.
func (r *Repo) NewOrBetter(ls []Link) []Link {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Link
	for _, l := range ls {
		if r.actsOn(l.pairKey(), l) {
			out = append(out, l)
		}
	}
	return out
}

// actsOn reports whether AddLink would store l, whose pairKey is pk, or
// upgrade the stored link of its pair. The caller holds r.mu.
func (r *Repo) actsOn(pk string, l Link) bool {
	if r.removed[pk] {
		return false
	}
	i, ok := r.present[pk]
	return !ok || l.Confidence > r.links[i].Confidence
}

// Removed reports whether the link's pair was deleted by user feedback
// (such links are refused by AddLink and must not seed derived links).
func (r *Repo) Removed(l Link) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.removed[l.pairKey()]
}

// RemoveLink deletes a link (user feedback, §6.2) and blocks it from
// being re-added. Reports whether a link was actually present.
func (r *Repo) RemoveLink(l Link) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	pk := l.pairKey()
	if !r.removed[pk] {
		r.removed[pk] = true
		r.removedLinks = append(r.removedLinks, l)
	}
	i, ok := r.present[pk]
	if !ok {
		return false
	}
	delete(r.present, pk)
	// Mark the slot dead; index slices keep positions, readers skip dead.
	r.links[i].Confidence = -1
	return true
}

// LinksOf returns all live links touching the given object.
func (r *Repo) LinksOf(ref ObjectRef) []Link {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Link
	for _, i := range r.byObject[ref.Key()] {
		if r.links[i].Confidence >= 0 {
			out = append(out, r.links[i])
		}
	}
	return out
}

// Links returns all live links, optionally filtered by type (pass -1 for
// all types).
func (r *Repo) Links(t LinkType) []Link {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Link
	for _, l := range r.links {
		if l.Confidence < 0 {
			continue
		}
		if t >= 0 && l.Type != t {
			continue
		}
		out = append(out, l)
	}
	return out
}

// AllLinks returns every live link.
func (r *Repo) AllLinks() []Link { return r.Links(-1) }

// LinkCount returns the number of live links of a type (-1 for all).
func (r *Repo) LinkCount(t LinkType) int { return len(r.Links(t)) }

// RemovedLinks returns the links deleted by user feedback, for
// persistence (restored systems must keep honoring the feedback, §6.2).
func (r *Repo) RemovedLinks() []Link {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Link, len(r.removedLinks))
	copy(out, r.removedLinks)
	return out
}

// RecordChanges adds n changed tuples to a source's change counter and
// returns the new total.
func (r *Repo) RecordChanges(source string, n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.sources[strings.ToLower(source)]
	if m == nil {
		return 0
	}
	m.ChangedTuples += n
	return m.ChangedTuples
}

// NeedsReanalysis applies the §6.2 threshold policy: re-analyze once the
// changed fraction of a source exceeds threshold (e.g. 0.1 = 10%).
func (r *Repo) NeedsReanalysis(source string, threshold float64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.sources[strings.ToLower(source)]
	if m == nil || m.TupleCount == 0 {
		return false
	}
	return float64(m.ChangedTuples)/float64(m.TupleCount) > threshold
}

// ResetChanges zeroes a source's change counter after re-analysis.
func (r *Repo) ResetChanges(source string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.sources[strings.ToLower(source)]; m != nil {
		m.ChangedTuples = 0
	}
}

// Stats summarizes repository contents.
type Stats struct {
	Sources      int
	Links        int
	LinksByType  map[string]int
	RemovedLinks int
}

// Stats returns a snapshot of repository statistics.
func (r *Repo) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Stats{
		Sources:      len(r.sources),
		LinksByType:  make(map[string]int),
		RemovedLinks: len(r.removed),
	}
	for _, l := range r.links {
		if l.Confidence < 0 {
			continue
		}
		s.Links++
		s.LinksByType[l.Type.String()]++
	}
	return s
}

// SortLinks orders links deterministically (by type, then endpoints) for
// stable reporting.
func SortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Type != ls[j].Type {
			return ls[i].Type < ls[j].Type
		}
		if ls[i].From.Key() != ls[j].From.Key() {
			return ls[i].From.Key() < ls[j].From.Key()
		}
		return ls[i].To.Key() < ls[j].To.Key()
	})
}
