package core

// The front door for a batch of records appended to a source the system
// already holds — the core half of streaming ingestion. The source was
// created through PrepareAdd, which discovered its structure; a batch
// reuses that structure and the registered profiles instead of
// re-running discovery, so the door only has to check that the batch
// fits. Everything after that is the path every integration takes (see
// the package comment): the shared prepare body links the batch against
// the other sources (DiscoverAppended) and buckets only the batch's
// records into the duplicate index, Commit journals one RecAppend frame
// for the whole batch, and publish grows the source's relations by
// append branches (rel.AppendBranch) — readers holding the previous
// relation headers keep seeing exactly the tuples of their snapshot, so
// a batch becomes visible atomically and never tears mid-batch.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/rel"
)

// PrepareAppend is the front door for one batch of an existing source.
// The batch database must contain only relations the source already has,
// with matching columns — appends never change a source's shape — and
// dependent rows must accompany their primary rows in the same batch
// (ownership propagation and duplicate records are computed per batch).
// Like PrepareAdd it touches nothing readers can see, and concurrent
// prepares are NOT safe; integrations are serialized by the caller.
func (s *System) PrepareAppend(ctx context.Context, source string, batch *rel.Database) (*Pending, error) {
	key := strings.ToLower(source)
	srcDB, ok := s.sources[key]
	if !ok {
		return nil, fmt.Errorf("core: append to unknown source %q", source)
	}
	for _, r := range batch.Relations() {
		live := srcDB.Relation(r.Name)
		if live == nil {
			return nil, fmt.Errorf("core: append cannot add relation %q to source %q", r.Name, source)
		}
		if got, want := r.Schema.Names(), live.Schema.Names(); !equalFoldSlices(got, want) {
			return nil, fmt.Errorf("core: append to %s.%s: batch columns %v do not match %v", source, r.Name, got, want)
		}
	}
	meta := s.Repo.Source(source)
	// Link, duplicate and search artifacts carry db.Name as their Source;
	// the batch must speak under the registered display name.
	batch.Name = meta.Name
	p := &Pending{batch: batch, key: key, name: meta.Name, structure: meta.Structure, profs: meta.Profiles}
	// DiscoverAppended skips the registered copy of this source — links
	// are cross-source by definition.
	return s.prepare(ctx, p, s.engine.DiscoverAppended)
}

// equalFoldSlices reports case-insensitive element-wise equality.
func equalFoldSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}
