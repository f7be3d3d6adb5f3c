package core

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// Exec executes one INSERT, UPDATE or DELETE statement against a
// warehouse relation named "<source>_<relation>" (the same names Query
// uses). The §6.2 change policy applies: affected rows are counted via
// RecordChanges, and the derived artifacts (links, search index,
// duplicate records) intentionally go stale until Reanalyze — ALADIN
// re-derives on threshold, not per statement.
//
// Relations are immutable once published (streaming cursors and the
// off-lock checkpointer depend on it), so DML is copy-on-write: the
// statement runs on a private clone which is published only after the
// statement — and its WAL record — succeeded. Callers serving
// concurrent readers hold their write lock for the whole call.
func (s *System) Exec(sql string) (*sqlx.Result, error) {
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		return nil, err
	}
	var table string
	switch st := stmt.(type) {
	case *sqlx.InsertStmt:
		table = st.Table
	case *sqlx.UpdateStmt:
		table = st.Table
	case *sqlx.DeleteStmt:
		table = st.Table
	case *sqlx.SelectStmt:
		return nil, fmt.Errorf("core: Exec handles INSERT/UPDATE/DELETE; use Query for SELECT")
	default:
		return nil, fmt.Errorf("core: statement %T cannot be executed against the warehouse", stmt)
	}

	srcKey, relName, err := s.resolveWarehouseTable(table)
	if err != nil {
		return nil, err
	}
	srcDB := s.sources[srcKey]
	orig := srcDB.Relation(relName)
	if orig == nil {
		return nil, fmt.Errorf("core: source %q has no relation %q", srcKey, relName)
	}
	meta := s.Repo.Source(srcKey)
	if meta == nil {
		return nil, fmt.Errorf("core: no metadata for source %q", srcKey)
	}

	// Run the statement on a clone inside a shallow-cloned warehouse, so
	// subqueries see every other warehouse relation while the published
	// relation stays untouched.
	clone := orig.Clone()
	clone.Name = table
	env := s.warehouse.ShallowClone()
	env.Put(clone)
	res, err := sqlx.ExecStmt(env, stmt)
	if err != nil {
		return nil, err
	}
	if res.Affected == 0 {
		return res, nil
	}

	// Journal before publishing: an acknowledged statement must survive a
	// crash. On log failure nothing was published — the statement simply
	// did not happen.
	if err := s.logRecord(&store.WALRecord{
		Type: store.RecDML, SourceName: meta.Name, SQL: sql,
	}, meta.Name); err != nil {
		return nil, err
	}

	clone.Name = orig.Name
	idxCols := indexColumns(meta.Structure)
	buildRelationIndexes(clone, idxCols[strings.ToLower(clone.Name)])
	// INSERTs maintained the clone's stats incrementally through Append;
	// UPDATE/DELETE mutate tuples in place, so rebuild from scratch.
	switch stmt.(type) {
	case *sqlx.UpdateStmt, *sqlx.DeleteStmt:
		clone.Stats = rel.BuildStats(clone)
	}
	srcDB.Put(clone)
	s.warehouse.Put(qualifiedClone(clone, srcKey, idxCols[strings.ToLower(clone.Name)]))
	// The source's forms hold tuple positions of the replaced relation.
	s.engine.Source(meta.Name).Drop()
	s.Repo.RecordChanges(meta.Name, res.Affected)
	return res, nil
}

// NeedsReanalysis reports whether accumulated DML changes on source have
// crossed the §6.2 re-analysis threshold.
func (s *System) NeedsReanalysis(source string) bool {
	return s.Repo.NeedsReanalysis(source, changeThreshold)
}

// resolveWarehouseTable splits a "<source>_<relation>" warehouse name
// into its source key and relation name by longest-source-prefix match
// (source names may themselves contain underscores).
func (s *System) resolveWarehouseTable(table string) (srcKey, relName string, err error) {
	name := strings.ToLower(table)
	for key, db := range s.sources {
		if !strings.HasPrefix(name, key+"_") {
			continue
		}
		rest := name[len(key)+1:]
		if db.Relation(rest) == nil {
			continue
		}
		if len(key) > len(srcKey) {
			srcKey, relName = key, rest
		}
	}
	if srcKey == "" {
		return "", "", fmt.Errorf("core: unknown warehouse relation %q (expected <source>_<relation>)", table)
	}
	return srcKey, relName, nil
}
