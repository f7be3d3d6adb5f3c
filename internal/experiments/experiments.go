// Package experiments regenerates every table and figure of the paper's
// evaluation programme, one experiment per id, e1 ... e12. Each
// experiment returns a printable Table, titled with the paper section it
// reproduces; cmd/experiments prints them and the root bench suite wraps
// them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/discovery"
	"repro/internal/dup"
	"repro/internal/eval"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/seq"
)

// Table is one reproduced table/figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func itos(i int) string   { return fmt.Sprintf("%d", i) }
func dur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// Workers bounds the pipeline worker pool of every experiment's system
// (0 = all CPUs, 1 = serial); cmd/experiments sets it from -workers.
var Workers int

// buildSystem integrates a corpus and returns the system.
func buildSystem(corpus *datagen.Corpus, opts core.Options) (*core.System, []*core.AddReport, error) {
	if opts.Workers == 0 {
		opts.Workers = Workers
	}
	sys := core.New(opts)
	var reports []*core.AddReport
	for _, src := range corpus.Sources {
		rep, err := sys.AddSource(src)
		if err != nil {
			return nil, nil, fmt.Errorf("integrating %s: %w", src.Name, err)
		}
		reports = append(reports, rep)
	}
	return sys, reports, nil
}

// E1Table1 reproduces Table 1 ("Spectrum of integration approaches") with
// the cost column quantified: manual actions to integrate each corpus
// source under the three approaches, plus ALADIN's measured wall time.
func E1Table1(proteins int) (Table, error) {
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: proteins})
	sys := core.New(core.Options{OntologySources: []string{"go"}, Workers: Workers})
	t := Table{
		ID:    "E1",
		Title: "Table 1 — integration cost per source (manual actions; ALADIN adds measured machine time)",
		Header: []string{"source", "relations", "attrs", "tuples",
			"data-focused", "schema-focused", "ALADIN", "aladin-wall"},
	}
	for _, src := range corpus.Sources {
		attrs := 0
		for _, r := range src.Relations() {
			attrs += r.Schema.Len()
		}
		cm := eval.CostModel{Relations: src.Len(), Attributes: attrs, Tuples: src.TotalTuples()}
		start := time.Now()
		if _, err := sys.AddSource(src); err != nil {
			return t, err
		}
		wall := time.Since(start)
		t.Rows = append(t.Rows, []string{
			src.Name, itos(src.Len()), itos(attrs), itos(src.TotalTuples()),
			itos(cm.ManualCurationActions()), itos(cm.SchemaMappingActions()),
			itos(cm.ALADINActions(false)), dur(wall),
		})
	}
	t.Notes = append(t.Notes,
		"data-focused = curator touches every tuple; schema-focused = wrapper + mapping per attribute;",
		"ALADIN = 0-1 manual actions (a quick-and-dirty parser only when no import method exists, §3)")
	return t, nil
}

// E2Pipeline reproduces Figure 2: the five integration steps with per-step
// timings and artifact counts over the full corpus.
func E2Pipeline(proteins int) (Table, error) {
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: proteins})
	sys, reports, err := buildSystem(corpus, core.Options{OntologySources: []string{"go"}})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E2",
		Title:  "Figure 2 — integration steps per source (timings and discovered artifacts)",
		Header: []string{"source", "step", "time", "artifacts"},
	}
	for _, rep := range reports {
		for _, st := range rep.Timings {
			artifact := ""
			switch st.Step {
			case "discover-structure":
				artifact = fmt.Sprintf("primary=%s fks=%d paths=%d",
					rep.Structure.Primary, len(rep.Structure.ForeignKeys), len(rep.Structure.Paths))
			case "link-discovery":
				artifact = fmt.Sprintf("xref-attrs=%d pairs-checked=%d",
					len(rep.XRefAttributes), rep.LinkStats.AttributePairsChecked)
			case "duplicate-detection":
				artifact = fmt.Sprintf("comparisons=%d flagged=%d",
					rep.DupStats.Comparisons, rep.DupStats.Flagged)
			}
			t.Rows = append(t.Rows, []string{rep.Source, st.Step, dur(st.Duration), artifact})
		}
	}
	st := sys.Repo.Stats()
	t.Notes = append(t.Notes, fmt.Sprintf("final repository: %d links %v", st.Links, st.LinksByType))
	return t, nil
}

// biosqlFigure3 builds the Figure 3 BioSQL fragment with realistic value
// distributions (the §5 case-study instance).
func biosqlFigure3() *rel.Database {
	db := rel.NewDatabase("biosql")
	rng := rand.New(rand.NewSource(5))
	n := 30
	names := []string{"HBA_HUMAN", "MYG_HUMAN", "INS_RAT", "K1C9_MOUSE", "CYC_BOVIN",
		"ALBU_HUMAN", "LYSC_CHICK", "TRY_PIG", "CATA_HUMAN", "P53_HUMAN"}
	bioentry := db.Create("bioentry", rel.TextSchema(
		"bioentry_id", "accession", "name", "taxon_id", "description"))
	taxon := db.Create("taxon", rel.TextSchema("taxon_id", "scientific_name"))
	biosequence := db.Create("biosequence", rel.TextSchema("bioentry_id", "biosequence_str"))
	comment := db.Create("comment", rel.TextSchema("comment_id", "bioentry_id", "comment_text"))
	dbref := db.Create("dbref", rel.TextSchema("dbref_id", "bioentry_id", "dbname", "accession_ref"))
	ontologyterm := db.Create("ontologyterm", rel.TextSchema("term_id", "term_name", "term_definition"))
	bioentryTerm := db.Create("bioentry_term", rel.TextSchema("bioentry_id", "term_id"))

	for i := 0; i < 4; i++ {
		taxon.AppendRaw(itos(9606+i), fmt.Sprintf("Species number %d", i))
	}
	for i := 0; i < 8; i++ {
		ontologyterm.AppendRaw(itos(i+1), fmt.Sprintf("GO:000%d000", i+1),
			fmt.Sprintf("a controlled vocabulary definition of function class %d", i))
	}
	bases := "ACGT"
	for i := 0; i < n; i++ {
		bid := itos(i + 1)
		bioentry.AppendRaw(bid, fmt.Sprintf("P%05d", 20000+i),
			names[i%len(names)]+fmt.Sprintf("_%d", i),
			itos(9606+(i%4)),
			fmt.Sprintf("functional description number %d with several free text words", i))
		seqb := make([]byte, 150)
		for j := range seqb {
			seqb[j] = bases[rng.Intn(4)]
		}
		biosequence.AppendRaw(bid, string(seqb))
		for c := 0; c < 2; c++ {
			comment.AppendRaw(itos(i*2+c+1), bid, fmt.Sprintf("curator remark %d-%d about this entry", i, c))
		}
		dbref.AppendRaw(itos(i+1), bid, "PDB", fmt.Sprintf("1AB%d", i))
		bioentryTerm.AppendRaw(bid, itos((i%8)+1))
	}
	return db
}

// E3BioSQL reproduces the Figure 3 / §5 case study: the discovery walk
// over the BioSQL schema, printing candidates, rejections, in-degrees and
// the chosen primary relation.
func E3BioSQL() (Table, error) {
	db := biosqlFigure3()
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		return Table{}, err
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E3",
		Title:  "Figure 3 / §5 — BioSQL case study: accession candidates and primary-relation selection",
		Header: []string{"relation", "candidate", "reason/rejections", "in-degree", "chosen"},
	}
	for _, r := range db.Relations() {
		cand, ok := st.Candidates[strings.ToLower(r.Name)]
		candStr, reason := "-", ""
		if ok {
			candStr = cand.Column
			reason = fmt.Sprintf("unique, non-digit, fixed-length (mean %.1f)", cand.MeanLen)
		} else {
			reason = rejectionReasons(r, profs)
		}
		chosen := ""
		if strings.EqualFold(r.Name, st.Primary) {
			chosen = "<== PRIMARY"
		}
		t.Rows = append(t.Rows, []string{
			r.Name, candStr, reason, itos(st.InDegree[strings.ToLower(r.Name)]), chosen,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("primary relation %q with accession column %q; %d guessed FKs; all relations reachable: %v",
			st.Primary, st.PrimaryAccession, len(st.ForeignKeys), len(st.Unreachable) == 0))
	be := profs[profile.Key("bioentry", "taxon_id")]
	bid := profs[profile.Key("bioentry", "bioentry_id")]
	nm := profs[profile.Key("bioentry", "name")]
	t.Notes = append(t.Notes, fmt.Sprintf(
		"§5 rejections hold: taxon_id unique=%v; bioentry_id all-non-digit=%v; name length-spread=%.2f (>0.20)",
		be.Unique, bid.AllValuesHaveNonDigit, nm.LenSpreadRatio))
	return t, nil
}

func rejectionReasons(r *rel.Relation, profs map[string]*profile.ColumnProfile) string {
	var reasons []string
	for _, c := range r.Schema.Columns {
		p := profs[profile.Key(r.Name, c.Name)]
		if p == nil {
			continue
		}
		switch {
		case !p.Unique:
		case !p.AllValuesHaveNonDigit:
		case p.MinLen < 4:
		case p.LenSpreadRatio > 0.2:
			reasons = append(reasons, c.Name+":length-spread")
		}
	}
	if len(reasons) == 0 {
		return "no column passes the accession rules"
	}
	return strings.Join(reasons, ",")
}

// E4PrimaryPR sweeps accession-format noise and reports primary-relation
// discovery accuracy per noise level.
func E4PrimaryPR(proteins int) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "§3/§5 — precision/recall of primary-relation discovery vs accession noise",
		Header: []string{"noise", "sources", "primary-correct", "accession-correct"},
	}
	for _, noise := range []float64{0, 0.1, 0.2, 0.3} {
		corpus := datagen.Generate(datagen.Config{
			Seed: 2, Proteins: proteins,
			Noise: datagen.Noise{AccessionViolation: noise},
		})
		okPrimary, okAcc := 0, 0
		for _, src := range corpus.Sources {
			profs, err := profile.ProfileDatabase(src, profile.Options{})
			if err != nil {
				return t, err
			}
			st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
			if err != nil {
				return t, err
			}
			name := strings.ToLower(src.Name)
			if strings.EqualFold(st.Primary, corpus.Gold.Primary[name]) {
				okPrimary++
				if strings.EqualFold(st.PrimaryAccession, corpus.Gold.Accession[name]) {
					okAcc++
				}
			}
		}
		n := len(corpus.Sources)
		t.Rows = append(t.Rows, []string{
			f2(noise), itos(n),
			fmt.Sprintf("%d/%d", okPrimary, n),
			fmt.Sprintf("%d/%d", okAcc, n),
		})
	}
	return t, nil
}

// E5ForeignKeyPR scores guessed FK graphs against the gold FKs, with and
// without the equal-size dictionary confusion case.
func E5ForeignKeyPR(proteins int) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "§3/§5 — precision/recall of foreign-key (secondary object) discovery",
		Header: []string{"variant", "source", "P", "R", "F1"},
	}
	for _, variant := range []struct {
		name string
		eq   bool
	}{{"plain", false}, {"equal-dictionaries", true}} {
		corpus := datagen.Generate(datagen.Config{
			Seed: 3, Proteins: proteins,
			Noise: datagen.Noise{EqualDictionaries: variant.eq},
		})
		var total eval.PR
		for _, src := range corpus.Sources {
			gold := corpus.Gold.ForeignKeys[strings.ToLower(src.Name)]
			if len(gold) == 0 {
				continue
			}
			profs, err := profile.ProfileDatabase(src, profile.Options{})
			if err != nil {
				return t, err
			}
			st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
			if err != nil {
				return t, err
			}
			var predicted []rel.ForeignKey
			for _, d := range st.ForeignKeys {
				predicted = append(predicted, d.From)
			}
			pr := eval.CompareFKs(predicted, gold)
			total.Add(pr)
			t.Rows = append(t.Rows, []string{
				variant.name, src.Name, f3(pr.Precision()), f3(pr.Recall()), f3(pr.F1()),
			})
		}
		t.Rows = append(t.Rows, []string{
			variant.name, "TOTAL", f3(total.Precision()), f3(total.Recall()), f3(total.F1()),
		})
	}
	return t, nil
}

// E6XRefPR sweeps cross-reference corruption and reports link P/R.
func E6XRefPR(proteins int) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "§4.4 — precision/recall of explicit cross-reference discovery vs corruption",
		Header: []string{"corruption", "missing", "gold-links", "P", "R", "F1"},
	}
	for _, noise := range []struct{ corrupt, missing float64 }{
		{0, 0}, {0.1, 0}, {0.3, 0}, {0, 0.3}, {0.2, 0.2},
	} {
		corpus := datagen.Generate(datagen.Config{
			Seed: 4, Proteins: proteins,
			Noise: datagen.Noise{XRefCorruption: noise.corrupt, XRefMissing: noise.missing},
		})
		sys, _, err := buildSystem(corpus, core.Options{
			OntologySources: []string{"go"}, DisableSearchIndex: true,
		})
		if err != nil {
			return t, err
		}
		gold := append([]datagen.GoldLink{}, corpus.Gold.XRefs...)
		gold = append(gold, corpus.Gold.TermXRefs...)
		pr := eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkXRef, gold)
		t.Rows = append(t.Rows, []string{
			f2(noise.corrupt), f2(noise.missing), itos(len(gold)),
			f3(pr.Precision()), f3(pr.Recall()), f3(pr.F1()),
		})
	}
	t.Notes = append(t.Notes,
		"corrupted values dangle (cannot resolve, so recall is unaffected at the link level);",
		"dropped references shrink the gold set itself — the §5 'annotation backlog'")
	return t, nil
}

// E7SequencePR sweeps sequence mutation rates and reports homology-link
// P/R plus the seeding-vs-full-alignment cost comparison: the pdb ×
// swissprot pairs sharing two k-mers, those of them a search aligns, and
// all pairs.
func E7SequencePR(proteins int) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "§4.4 — implicit sequence links: P/R vs mutation rate, and k-mer seeding cost",
		Header: []string{"mutation", "P", "R", "F1", "seeded-candidates", "aligned", "all-pairs"},
	}
	for _, mut := range []float64{0.01, 0.05, 0.10, 0.20, 0.40} {
		corpus := datagen.Generate(datagen.Config{
			Seed: 5, Proteins: proteins,
			Noise: datagen.Noise{SeqMutation: mut},
		})
		// Only swissprot + pdb + genbank carry sequences; integrate those.
		sys := core.New(core.Options{DisableSearchIndex: true, Workers: Workers})
		for _, name := range []string{"swissprot", "pdb", "genbank"} {
			if _, err := sys.AddSource(corpus.Source(name)); err != nil {
				return t, err
			}
		}
		pr := eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkSequence, corpus.Gold.Homologs)

		// Seeding selectivity: how many candidate targets does the k-mer
		// index admit per query vs the quadratic baseline.
		ix := seq.NewIndex(8)
		sp := corpus.Source("swissprot").Relation("sequence")
		si := sp.Schema.Index("seq")
		for i, tu := range sp.Tuples {
			ix.Add(itos(i), tu[si].AsString())
		}
		pdb := corpus.Source("pdb").Relation("chain")
		ci := pdb.Schema.Index("chain_seq")
		seeded, aligned := 0, 0
		for _, tu := range pdb.Tuples {
			s, a := ix.CandidateCount(tu[ci].AsString())
			seeded, aligned = seeded+s, aligned+a
		}
		t.Rows = append(t.Rows, []string{
			f2(mut), f3(pr.Precision()), f3(pr.Recall()), f3(pr.F1()),
			itos(seeded), itos(aligned), itos(len(pdb.Tuples) * len(sp.Tuples)),
		})
	}
	return t, nil
}

// E8TextPR reports entity-mention and description-similarity link quality
// on the source pairs each channel targets: entity mentions connect OMIM
// clinical text to Swiss-Prot entry names; description similarity
// connects the Swiss-Prot/PIR copies of the same protein (the gold
// duplicates share their annotation wording).
func E8TextPR(proteins int) (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "§4.4 — implicit text links: entity mentions and description similarity",
		Header: []string{"channel", "source-pair", "gold", "P", "R", "F1"},
	}
	corpus := datagen.Generate(datagen.Config{Seed: 6, Proteins: proteins})
	mkSource := func(name string) (*linkdisc.Source, error) {
		db := corpus.Source(name)
		profs, err := profile.ProfileDatabase(db, profile.Options{})
		if err != nil {
			return nil, err
		}
		st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return &linkdisc.Source{DB: db, Structure: st, Profiles: profs}, nil
	}
	pairEval := func(a, b string, entityOnly bool, gold []datagen.GoldLink) (eval.PR, error) {
		sa, err := mkSource(a)
		if err != nil {
			return eval.PR{}, err
		}
		sb, err := mkSource(b)
		if err != nil {
			return eval.PR{}, err
		}
		eng := linkdisc.New(linkdisc.Options{DisableSequenceLinks: true,
			DisableTextLinks: entityOnly, DisableEntityLinks: !entityOnly})
		if err := eng.AddSource(sa); err != nil {
			return eval.PR{}, err
		}
		if err := eng.AddSource(sb); err != nil {
			return eval.PR{}, err
		}
		links, _, _ := eng.DiscoverAll()
		var textLinks []metadata.Link
		for _, l := range links {
			if l.Type == metadata.LinkText {
				textLinks = append(textLinks, l)
			}
		}
		return eval.CompareLinks(textLinks, metadata.LinkText, gold), nil
	}
	prEnt, err := pairEval("omim", "swissprot", true, corpus.Gold.EntityLinks)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"entity-mention", "omim~swissprot",
		itos(len(corpus.Gold.EntityLinks)),
		f3(prEnt.Precision()), f3(prEnt.Recall()), f3(prEnt.F1())})
	prTxt, err := pairEval("swissprot", "pir", false, corpus.Gold.Duplicates)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"description-cosine", "swissprot~pir",
		itos(len(corpus.Gold.Duplicates)),
		f3(prTxt.Precision()), f3(prTxt.Recall()), f3(prTxt.F1())})
	return t, nil
}

// E9DuplicatePR sweeps the duplicate threshold and field noise.
func E9DuplicatePR(proteins int) (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "§4.5 — duplicate detection: P/R over threshold x field-noise",
		Header: []string{"field-noise", "threshold", "P", "R", "F1", "comparisons"},
	}
	for _, noise := range []float64{0, 0.3, 0.6} {
		corpus := datagen.Generate(datagen.Config{
			Seed: 7, Proteins: proteins,
			Noise: datagen.Noise{DuplicateFieldNoise: noise},
		})
		var records []dup.Record
		for _, name := range []string{"swissprot", "pir"} {
			src := corpus.Source(name)
			profs, err := profile.ProfileDatabase(src, profile.Options{})
			if err != nil {
				return t, err
			}
			st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
			if err != nil {
				return t, err
			}
			records = append(records, dup.RecordsFromSource(src, st)...)
		}
		goldSet := eval.GoldLinkSet(corpus.Gold.Duplicates)
		for _, th := range []float64{0.4, 0.6, 0.8} {
			matches, stats := dup.FindDuplicates(records, dup.Options{
				Blocking: dup.FullPairwise, Threshold: th,
			})
			links := dup.Links(matches)
			pr := eval.CompareSets(eval.PredictedLinkSet(links, metadata.LinkDuplicate), goldSet)
			t.Rows = append(t.Rows, []string{
				f2(noise), f2(th), f3(pr.Precision()), f3(pr.Recall()), f3(pr.F1()),
				itos(stats.Comparisons),
			})
		}
	}
	return t, nil
}

// e10Sizes are the protein counts E10 runs at. Adding a source costs
// seconds at 800 proteins, so tests call e10Add at the smaller sizes.
var e10Sizes = [...]int{50, 100, 200, 400, 800}

// E10Scaling measures the cost of adding a source at each size and the
// effect of the pruning strategies and sampling: swissprot is added
// beside pdb, and the row counts the IND and xref attribute pairs checked
// and the sequence pairs seeded, aligned and linked.
func E10Scaling() (Table, error) {
	t := Table{
		ID:    "E10",
		Title: "§6.2 — cost of adding a source: size scaling, pruning and sampling ablations",
		Header: []string{"proteins", "variant", "add-time", "ind-pairs-checked", "xref-pairs-checked",
			"seq-seeded", "seq-aligned", "seq-hits"},
	}
	for _, n := range e10Sizes {
		for _, v := range e10Variants {
			rep, elapsed, err := e10Add(n, v)
			if err != nil {
				return t, err
			}
			ls := rep.LinkStats
			t.Rows = append(t.Rows, []string{
				itos(n), v.name, dur(elapsed),
				itos(rep.Structure.INDStats.PairsChecked), itos(ls.AttributePairsChecked),
				itos(ls.SequenceSeeded), itos(ls.SequenceAligned), itos(ls.SequenceComparisons),
			})
		}
	}
	t.Notes = append(t.Notes,
		"no-pruning disables the min-hash IND pre-filter and the §4.4 attribute exclusions;",
		"sampling profiles every 10th tuple (§6.2 'sampling can be used');",
		"seq-hits counts sequence hits above the 0.7 identity threshold, in both directions")
	return t, nil
}

// e10Variant is one of E10's ablations.
type e10Variant struct {
	name     string
	discOpts discovery.Options
	linkOpts linkdisc.Options
	profOpts profile.Options
}

var e10Variants = []e10Variant{
	{"full", discovery.DefaultOptions(), linkdisc.Options{}, profile.Options{}},
	{"no-pruning", noPruneDiscovery(), linkdisc.Options{DisablePruning: true}, profile.Options{}},
	{"sampled-10%", discovery.DefaultOptions(), linkdisc.Options{}, profile.Options{SampleEvery: 10}},
}

// e10Add integrates pdb, then times adding swissprot beside it, at
// datagen seed 8 and the given size, under one of E10's variants.
func e10Add(proteins int, v e10Variant) (*core.AddReport, time.Duration, error) {
	corpus := datagen.Generate(datagen.Config{Seed: 8, Proteins: proteins})
	sys := core.New(core.Options{
		Discovery: v.discOpts, Links: v.linkOpts,
		Profile: v.profOpts, DisableSearchIndex: true,
		Workers: Workers,
	})
	if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	rep, err := sys.AddSource(corpus.Source("swissprot"))
	return rep, time.Since(start), err
}

func noPruneDiscovery() discovery.Options {
	o := discovery.DefaultOptions()
	o.IND.DisableSignaturePruning = true
	return o
}

// E11ChangeThreshold measures re-analysis cost against churn fractions
// under the §6.2 threshold policy.
func E11ChangeThreshold(proteins int) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "§6.2 — data-change threshold: churn vs re-analysis decision and cost",
		Header: []string{"churn", "needs-reanalysis(10%)", "reanalysis-time"},
	}
	corpus := datagen.Generate(datagen.Config{Seed: 9, Proteins: proteins})
	sys, _, err := buildSystem(corpus, core.Options{DisableSearchIndex: true})
	if err != nil {
		return t, err
	}
	total := sys.Repo.Source("swissprot").TupleCount
	for _, churn := range []float64{0.02, 0.05, 0.08, 0.12, 0.25} {
		sys.Repo.ResetChanges("swissprot")
		needs := sys.RecordChanges("swissprot", int(churn*float64(total)))
		cost := time.Duration(0)
		if needs {
			start := time.Now()
			if _, err := sys.Reanalyze("swissprot"); err != nil {
				return t, err
			}
			cost = time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			f2(churn), fmt.Sprintf("%v", needs), dur(cost),
		})
	}
	t.Notes = append(t.Notes, "below the threshold no recomputation happens; above it the full per-source analysis re-runs")
	return t, nil
}

// E12SearchBrowse measures search latency/quality and path-based ranking.
func E12SearchBrowse(proteins int) (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "§4.6 — search ranking and [BLM+04] path-based browse ranking",
		Header: []string{"probe", "result", "detail"},
	}
	corpus := datagen.Generate(datagen.Config{Seed: 10, Proteins: proteins})
	sys, _, err := buildSystem(corpus, core.Options{OntologySources: []string{"go"}})
	if err != nil {
		return t, err
	}
	// Search: query a protein's distinctive name; its object must rank #1.
	queries := 0
	top1 := 0
	var totalLatency time.Duration
	for i := 0; i < proteins; i += 5 {
		acc := fmt.Sprintf("P%05d", 10000+i)
		v, err := sys.Browse(metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: acc})
		if err != nil {
			continue
		}
		desc := v.Fields["description"]
		terms := strings.Join(strings.Fields(desc)[:3], " ")
		start := time.Now()
		rs := sys.Search(terms, search.Filter{Sources: []string{"swissprot"}}, 5)
		totalLatency += time.Since(start)
		queries++
		if len(rs) > 0 && rs[0].Document.Object.Accession == acc {
			top1++
		}
	}
	t.Rows = append(t.Rows, []string{"search-top1", fmt.Sprintf("%d/%d", top1, queries),
		fmt.Sprintf("mean latency %v", dur(totalLatency/time.Duration(max(queries, 1))))})

	// Browse ranking: gold-linked objects must out-rank unlinked ones.
	start := metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	related := sys.Related(start, 2, 5)
	detail := "none"
	if len(related) > 0 {
		detail = fmt.Sprintf("top=%s:%s score=%.2f paths=%d",
			related[0].Ref.Source, related[0].Ref.Accession, related[0].Score, related[0].Paths)
	}
	t.Rows = append(t.Rows, []string{"browse-related", itos(len(related)), detail})
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// All runs every experiment at default scale.
func All() ([]Table, error) {
	var out []Table
	type gen func() (Table, error)
	gens := []gen{
		func() (Table, error) { return E1Table1(40) },
		func() (Table, error) { return E2Pipeline(40) },
		E3BioSQL,
		func() (Table, error) { return E4PrimaryPR(40) },
		func() (Table, error) { return E5ForeignKeyPR(40) },
		func() (Table, error) { return E6XRefPR(40) },
		func() (Table, error) { return E7SequencePR(30) },
		func() (Table, error) { return E8TextPR(40) },
		func() (Table, error) { return E9DuplicatePR(40) },
		E10Scaling,
		func() (Table, error) { return E11ChangeThreshold(40) },
		func() (Table, error) { return E12SearchBrowse(40) },
	}
	for _, g := range gens {
		tbl, err := g()
		if err != nil {
			return out, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
