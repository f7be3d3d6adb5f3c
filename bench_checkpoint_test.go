// Durability benchmarks (ROADMAP item 1): checkpoint latency as a
// function of how many sources are dirty — the incremental-checkpoint
// property means cost should track the dirty count, not the corpus —
// and recovery time as a function of corpus size, for both a fully
// checkpointed directory (segment loads) and a pure WAL tail (replay).
//
// Run with:
//
//	go test -bench 'Checkpoint|Recovery' -benchtime 1x .
//
// The tracked, end-to-end numbers come from bench/ (bash bench/run.sh).
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

func durableBenchOpts() core.Options {
	return core.Options{OntologySources: []string{"go"}}
}

// durableBenchSystem builds a durable system over the full synthetic
// corpus in dir.
func durableBenchSystem(b *testing.B, dir string, proteins int) (*core.System, *store.Dir) {
	b.Helper()
	d, err := store.OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.New(durableBenchOpts())
	sys.AttachDurable(d)
	corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: proteins})
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			b.Fatalf("integrating %s: %v", src.Name, err)
		}
	}
	return sys, d
}

func benchCheckpoint(b *testing.B, sys *core.System) {
	b.Helper()
	cp, err := sys.BeginCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.WriteCheckpoint(cp); err != nil {
		b.Fatal(err)
	}
}

// dirtyUpdates builds one single-row, value-preserving UPDATE per source
// — the cheapest journaled mutation that marks a source dirty.
func dirtyUpdates(b *testing.B, sys *core.System, n int) []string {
	b.Helper()
	wh := sys.WarehouseSnapshot()
	var stmts []string
	for _, m := range sys.Repo.Sources() {
		if len(stmts) == n {
			break
		}
		table := strings.ToLower(m.Name) + "_" + strings.ToLower(m.Structure.Primary)
		col := strings.ToLower(m.Structure.PrimaryAccession)
		r := wh.Relation(table)
		if r == nil || col == "" || len(r.Tuples) == 0 {
			continue
		}
		v := r.Tuples[0][r.Schema.Index(col)].AsString()
		stmts = append(stmts, fmt.Sprintf("UPDATE %s SET %s = '%s' WHERE %s = '%s'", table, col, v, col, v))
	}
	if len(stmts) != n {
		b.Fatalf("only %d of %d sources have a usable primary relation", len(stmts), n)
	}
	return stmts
}

// checkpointDirtyBench measures one checkpoint cycle with exactly
// `dirty` of the 6 corpus sources dirtied per iteration.
func checkpointDirtyBench(dirty, proteins int) func(b *testing.B) {
	return func(b *testing.B) {
		sys, d := durableBenchSystem(b, b.TempDir(), proteins)
		defer d.Close()
		benchCheckpoint(b, sys) // fold the integration WAL; all clean now
		stmts := dirtyUpdates(b, sys, dirty)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, sql := range stmts {
				if _, err := sys.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			benchCheckpoint(b, sys)
		}
	}
}

// recoveryBench measures core.Recover of a 6-source corpus directory.
// When checkpointed, recovery loads segments; otherwise it replays the
// integration WAL through the full pipeline-restore path.
func recoveryBench(proteins int, checkpointed bool) func(b *testing.B) {
	return func(b *testing.B) {
		dir := b.TempDir()
		sys, d := durableBenchSystem(b, dir, proteins)
		if checkpointed {
			benchCheckpoint(b, sys)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := store.OpenDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			rsys, _, err := core.Recover(durableBenchOpts(), d)
			if err != nil {
				b.Fatal(err)
			}
			if len(rsys.Sources()) != 6 {
				b.Fatal("recovery incomplete")
			}
			d.Close()
		}
	}
}

func BenchmarkCheckpointDirtySources(b *testing.B) {
	for _, dirty := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), checkpointDirtyBench(dirty, 24))
	}
}

func BenchmarkRecovery(b *testing.B) {
	for _, proteins := range []int{8, 24, 48} {
		b.Run(fmt.Sprintf("proteins=%d/checkpointed", proteins), recoveryBench(proteins, true))
		b.Run(fmt.Sprintf("proteins=%d/wal-replay", proteins), recoveryBench(proteins, false))
	}
}
