package main

import (
	"repro/bench/corpus"
)

// runSeconds is the run length the sizes below are frozen for (the
// run_seconds of BENCHMARK.json). --seconds scales every record count and
// read duration by seconds/runSeconds, so a short smoke run exercises the
// same phases on less data.
const runSeconds = 30

// Every run walks the same life cycle — boot an empty node, stream the
// workload's sources in, stop it, serve from a copy of what it stored and
// there, round after round, read, attach a replica, stream a tail source
// in while the replica follows, kill -9 and recover — because the
// benchmark's contract has every run report every end-to-end metric. The
// workloads differ in what is loaded, what is read and how, and so in
// which layers do the work.
type spec struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// corpus names (in corpora) what the load phase streams in.
	corpus string
	// mix picks the read traffic over the loaded sources.
	mix func(files []*corpus.File) mix
	// windowCycles is how many walks through the mix one timed stretch of
	// the closed read loop is (with nproc clients; about 0.15 s).
	windowCycles int
	// openRate, when set, replaces the closed loop by an open loop of this
	// many requests per second that runs for as long as the round's tail
	// upload does: reads beside writes.
	openRate float64
	// tailBatches x tailBatch short FASTA reads are streamed into a new
	// source in every serving round, once the round's replica is attached.
	// Each committed batch gives one replication-lag sample, and the tail
	// sources so far are what a kill -9 finds only in the WAL.
	tailBatches, tailBatch int
}

// Frozen sizes at runSeconds. They are capped by link discovery, which is
// quadratic in sequences (about 55 us per cross-source sequence pair on
// the one CPU the benchmark pins itself to), and by the run having to load
// its corpus loadRepeats times, not by ambition.
const (
	fastaRecords = 4000 // ingest-stream: 8 batches of 500, so the last commit triggers a checkpoint
	fastaDupEach = 50   // every 50th FASTA record is a planted duplicate

	linkedEMBL    = 1200 // integrate-linked; more than one 1,000-row page
	linkedGenBank = 24   // x linkedEMBL = 28.8k sequence pairs
	ontologyTerms = 50

	baseEMBL    = 1200 // write-beside-read
	baseGenBank = 8    // x baseEMBL = 9.6k sequence pairs

	streamBatch = 500 // batch= of every load-phase upload
)

func scale(n int, k float64) int { return max(1, int(float64(n)*k+0.5)) }

func loadFASTA(seed int64, k float64) ([]*corpus.File, []corpus.Link) {
	f, gold := corpus.FASTA(seed, "seqs", 0, scale(fastaRecords, k), 120, fastaDupEach)
	return []*corpus.File{f}, gold
}

// loadLinked is the paper's scenario: Swiss-Prot first, then GenBank
// records that cross-reference it and carry mutated copies of its
// sequences, then the ontology the Swiss-Prot DR lines point into.
func loadLinked(nEMBL, nGenBank int) func(int64, float64) ([]*corpus.File, []corpus.Link) {
	return func(seed int64, k float64) ([]*corpus.File, []corpus.Link) {
		embl := corpus.EMBL(seed, "swissprot", scale(nEMBL, k), ontologyTerms)
		// Structure discovery needs a handful of records to tell the
		// entry relation from its dependents, however small the scale.
		genbank, gold := corpus.GenBank(seed, "genbank", min(max(8, scale(nGenBank, k)), embl.Records()), embl)
		obo := corpus.OBO(seed, "go", ontologyTerms)
		gold = append(gold, corpus.TermLinks(embl, obo.Source)...)
		return []*corpus.File{embl, genbank, obo}, gold
	}
}

// corpora builds, by name, the sources of a load phase and the links the
// pipeline should find among them; k scales the sizes.
var corpora = map[string]func(seed int64, k float64) ([]*corpus.File, []corpus.Link){
	"fasta":  loadFASTA,
	"linked": loadLinked(linkedEMBL, linkedGenBank),
	"base":   loadLinked(baseEMBL, baseGenBank),
}

func pointsOver(i int) func([]*corpus.File) mix {
	return func(files []*corpus.File) mix { return pointMix{files[i]} }
}

// Three workloads, not the five ISSUE 11 sketched: the driver's time budget
// is shared by all runs of all workloads, and on this sandbox a run has to
// be long (see README.md, "Sandbox caveats") for its numbers to repeat.
// The read mixes that were to be workloads of their own, over a prebuilt
// warehouse, are the read phases of the two load workloads instead.
var specs = []*spec{
	{
		name:   "ingest-stream",
		why:    "a FASTA file streamed into an empty node: flatfile, dup, indexes, store; no links. Read back by point SELECT, browse, search, related over 4,000 keys: HTTP cost, plan cache overflows",
		corpus: "fasta", mix: pointsOver(0), windowCycles: 150,
		tailBatches: 1, tailBatch: 200,
	},
	{
		name:   "integrate-linked",
		why:    "Swiss-Prot, GenBank citing it, an ontology: quadratic link discovery dominates, gold scores quality. Read back by LIKE, join, GROUP BY, DISTINCT, paged ORDER BY: executor, plan cache always hits",
		corpus: "linked", mix: func(files []*corpus.File) mix { return newScanMix(files[0]) }, windowCycles: 8,
		tailBatches: 1, tailBatch: 200,
	},
	{
		name:   "write-beside-read",
		why:    "open loop of point reads at a fixed 200 req/s, timed from their due time, while FASTA batches stream in and a replica follows: commits against readers",
		corpus: "base", mix: pointsOver(0), windowCycles: 100, openRate: 200,
		tailBatches: 6, tailBatch: 200,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
