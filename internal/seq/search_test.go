package seq

// Search is one query's forward hits from CrossSearch, ranked by Rank:
// the one-sided search the package's tests and example read. Link
// discovery calls CrossSearch directly.
func (ix *Index) Search(query string, opts SearchOptions) []Hit {
	var hits []Hit
	var w Work
	for _, p := range ix.CrossSearch(query, opts, &w) {
		hits = append(hits, Hit{TargetID: ix.records[p.Target].ID, Alignment: p.Fwd})
	}
	return Rank(hits)
}
