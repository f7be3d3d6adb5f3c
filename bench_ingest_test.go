// Streaming-ingestion benchmarks (the ingest subsystem's perf record):
// end-to-end records/sec and allocations per record for the same flat
// file ingested two ways — streamed through IngestSource in bounded
// batches versus parsed whole and integrated with one AddSource. The
// streaming path shares tuple pointers on append instead of deep-cloning
// into the warehouse, so it should win on allocs/record as well as keep
// peak memory bounded by the batch size.
//
// Run with:
//
//	go test -bench Ingest -benchtime 1x .
//
// The tracked, end-to-end numbers come from bench/ (bash bench/run.sh).
package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/aladin"
	"repro/internal/datagen"
	"repro/internal/flatfile"
)

const ingestBenchSeed = 21

// fastaCorpus renders the benchmark flat file once per benchmark.
func fastaCorpus(b *testing.B, records int) string {
	b.Helper()
	var sb strings.Builder
	if err := datagen.FastaText(&sb, records, ingestBenchSeed); err != nil {
		b.Fatal(err)
	}
	return sb.String()
}

// streamingIngestBench measures IngestSource over a fresh in-memory
// database per iteration: parse, batch, link/dup analysis and commit all
// inside the timer — the full cost of making the file queryable.
func streamingIngestBench(records, batch int) func(b *testing.B) {
	return func(b *testing.B) {
		input := fastaCorpus(b, records)
		ctx := context.Background()
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := aladin.Open()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := db.IngestSource(ctx, "seqs", "fasta", strings.NewReader(input),
				aladin.WithBatchRecords(batch))
			if err != nil || rep.Records != records {
				b.Fatalf("ingest: %v (%+v)", err, rep)
			}
			b.StopTimer()
			db.Close()
			b.StartTimer()
		}
	}
}

// monolithicIngestBench is the whole-file control: flatfile.Parse
// collects every record into one database, AddSource integrates it in a
// single pipeline run.
func monolithicIngestBench(records int) func(b *testing.B) {
	return func(b *testing.B) {
		input := fastaCorpus(b, records)
		ctx := context.Background()
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := aladin.Open()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			parsed, err := flatfile.Parse("fasta", strings.NewReader(input), "seqs")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.AddSource(ctx, parsed); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			db.Close()
			b.StartTimer()
		}
	}
}

func BenchmarkIngestStreaming(b *testing.B) {
	for _, c := range []struct{ records, batch int }{
		{20_000, 2000},
		{100_000, 5000},
	} {
		b.Run(fmt.Sprintf("records=%d/batch=%d", c.records, c.batch),
			streamingIngestBench(c.records, c.batch))
	}
}

func BenchmarkIngestMonolithic(b *testing.B) {
	for _, records := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", records), monolithicIngestBench(records))
	}
}
