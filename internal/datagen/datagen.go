// Package datagen generates the synthetic evaluation corpus: a family of
// life-science-shaped data sources with a known gold standard, standing in
// for the real Swiss-Prot / PDB / PIR / GO / OMIM instances the paper's §5
// case study uses. The generators
// reproduce the structural properties the ALADIN heuristics rely on —
// accession formats, one primary relation per source, surrogate-keyed
// dependent tables, cross-reference fields (plain and composite-encoded),
// sequence fields, free-text annotation, controlled-vocabulary terms, and
// source overlap with field-level conflicts — with parameterized noise.
//
// The gold standard enables the precision/recall estimation the paper
// proposes in §3/§5 ("The COLUMBA database shall serve as a 'learning'
// test set for estimating the performance of ALADIN's various analysis
// algorithms").
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rel"
)

// GoldLink is one true object-level relationship.
type GoldLink struct {
	FromSource, FromAccession string
	ToSource, ToAccession     string
}

// Gold is the generated ground truth.
type Gold struct {
	// Primary maps source name -> true primary relation.
	Primary map[string]string
	// Accession maps source name -> true accession column.
	Accession map[string]string
	// ForeignKeys lists the true intra-source FKs per source.
	ForeignKeys map[string][]rel.ForeignKey
	// XRefs are the true explicit cross-reference object links.
	XRefs []GoldLink
	// Homologs are the true sequence-similarity links.
	Homologs []GoldLink
	// Duplicates are the true same-real-world-object pairs.
	Duplicates []GoldLink
	// EntityLinks are true text-mention links (disease text naming a
	// protein).
	EntityLinks []GoldLink
	// TermXRefs are true links from objects to ontology terms.
	TermXRefs []GoldLink
}

// Noise parameterizes gold-standard corruption.
type Noise struct {
	// XRefCorruption replaces this fraction of cross-reference values
	// with dangling garbage (false targets).
	XRefCorruption float64
	// XRefMissing drops this fraction of cross-references entirely (the
	// §5 "annotation backlog" appearing as missing links).
	XRefMissing float64
	// SeqMutation is the per-base mutation rate between homologous
	// sequences.
	SeqMutation float64
	// DuplicateFieldNoise perturbs this fraction of duplicate field
	// values (conflicting values across sources, §4.5).
	DuplicateFieldNoise float64
	// AccessionViolation makes this fraction of accessions violate the
	// format heuristics (too short / digits only).
	AccessionViolation float64
	// EqualDictionaries, when true, generates two dictionary tables with
	// identical value counts — the §4.2 confusion case.
	EqualDictionaries bool
}

// Config controls corpus generation.
type Config struct {
	Seed int64
	// Proteins is the number of base real-world entities (default 50).
	Proteins int
	// CompositeXRefFrac encodes this fraction of xrefs as "DB:ACC"
	// composites (default 0.5).
	CompositeXRefFrac float64
	// SeqLen is the base sequence length (default 200).
	SeqLen int
	// PIROverlap is the fraction of proteins also present in the PIR-like
	// source (default 0.6).
	PIROverlap float64
	Noise      Noise
}

func (c *Config) fill() {
	if c.Proteins <= 0 {
		c.Proteins = 50
	}
	if c.CompositeXRefFrac == 0 {
		c.CompositeXRefFrac = 0.5
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 200
	}
	if c.PIROverlap == 0 {
		c.PIROverlap = 0.6
	}
}

// Corpus is the generated multi-source warehouse plus its gold standard.
type Corpus struct {
	Sources []*rel.Database
	Gold    Gold
}

// Source returns a generated source by name, or nil.
func (c *Corpus) Source(name string) *rel.Database {
	for _, s := range c.Sources {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// world holds the base entities all sources are projected from.
type world struct {
	rng *rand.Rand
	cfg Config

	names     []string // distinctive protein names
	organisms []string
	functions []string // function phrases (distinct topic words per protein)
	sequences []string
	pdbCodes  []string
	goTerms   []string // GO accessions assigned per protein
	mimAssoc  []int    // protein index associated with each disease
}

var nameRoots = []string{
	"hemoglobin", "myoglobin", "insulin", "keratin", "cytochrome",
	"lysozyme", "trypsin", "catalase", "albumin", "ferritin",
	"collagen", "elastin", "actin", "myosin", "tubulin",
	"kinesin", "dynein", "calmodulin", "ubiquitin", "thrombin",
}

var nameQualifiers = []string{
	"alpha", "beta", "gamma", "delta", "epsilon", "kappa", "zeta",
	"precursor", "homolog", "isoform", "variant", "subunit",
}

var organisms = []string{
	"Homo sapiens", "Mus musculus", "Rattus norvegicus", "Bos taurus",
	"Gallus gallus", "Danio rerio", "Drosophila melanogaster",
	"Saccharomyces cerevisiae",
}

var functionVerbs = []string{
	"transports", "binds", "catalyzes", "regulates", "stabilizes",
	"degrades", "phosphorylates", "inhibits", "activates", "cleaves",
}

var functionObjects = []string{
	"oxygen molecules", "glucose metabolism", "membrane lipids",
	"ribosomal assembly", "dna replication forks", "calcium signaling",
	"peptide bonds", "iron storage granules", "cytoskeletal filaments",
	"hormone receptors", "antigen complexes", "electron carriers",
	"chromatin remodeling", "vesicle trafficking", "proton gradients",
	"messenger transcripts", "collagen fibrils", "synaptic vesicles",
	"nitrogen fixation", "sulfate reduction",
}

func newWorld(cfg Config) *world {
	w := &world{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	n := cfg.Proteins
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		// Index tokens stay >= 2 characters (the tokenizer drops single
		// characters), keeping every name lexically distinctive.
		name := fmt.Sprintf("%s %s %d", nameRoots[i%len(nameRoots)],
			nameQualifiers[(i/len(nameRoots))%len(nameQualifiers)], i+10)
		seen[name] = true
		w.names = append(w.names, name)
		w.organisms = append(w.organisms, organisms[w.rng.Intn(len(organisms))])
		verb := functionVerbs[i%len(functionVerbs)]
		obj1 := functionObjects[i%len(functionObjects)]
		// obj2 decorrelates from obj1 across name-root cycles so that
		// same-root proteins do not share their whole function phrase.
		obj2 := functionObjects[(i*7+i/len(nameRoots)+3)%len(functionObjects)]
		w.functions = append(w.functions,
			fmt.Sprintf("%s %s and interacts with %s", verb, obj1, obj2))
		w.sequences = append(w.sequences, randomDNA(w.rng, cfg.SeqLen))
		w.pdbCodes = append(w.pdbCodes, pdbCode(i))
		w.goTerms = append(w.goTerms, fmt.Sprintf("GO:%07d", 1000+(i%10)))
	}
	// One disease per third protein.
	for i := 0; i < n; i += 3 {
		w.mimAssoc = append(w.mimAssoc, i)
	}
	return w
}

func randomDNA(rng *rand.Rand, n int) string {
	bases := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return string(b)
}

// mutate applies point mutations at the given rate.
func mutate(rng *rand.Rand, s string, rate float64) string {
	bases := "ACGT"
	b := []byte(s)
	for i := range b {
		if rng.Float64() < rate {
			b[i] = bases[rng.Intn(4)]
		}
	}
	return string(b)
}

// pdbCodeCycle is the period of the digit-letter-letter-digit formula
// the first codes use; it yields pdbCodeCycle distinct codes.
const pdbCodeCycle = 360

// pdbCode builds PDB-style codes: a digit 1-9, then alphanumerics, four
// characters up to index 124,775. Indexes below pdbCodeCycle keep the
// digit-letter-letter-digit form; later ones end in the rest of the index
// written in letters (base 24, least significant first, at least three
// wide), so every index gets a code of its own: a code ending in a letter
// cannot equal one ending in a digit, and fixed-width padding keeps the
// letter form one-to-one.
func pdbCode(i int) string {
	const letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
	if i < pdbCodeCycle {
		return fmt.Sprintf("%d%c%c%d", 1+i%9, letters[i%len(letters)],
			letters[(i/3)%len(letters)], i%10)
	}
	j := i - pdbCodeCycle
	code := []byte{byte('1' + j%9)}
	for n := j / 9; n > 0 || len(code) < 4; n /= len(letters) {
		code = append(code, letters[n%len(letters)])
	}
	return string(code)
}

func uniprotAcc(i int) string { return fmt.Sprintf("P%05d", 10000+i) }
func pirAcc(i int) string     { return fmt.Sprintf("A%05d", 40000+i) }
func mimAcc(i int) string     { return fmt.Sprintf("MIM%05d", 100000+i) }
func geneAcc(i int) string    { return fmt.Sprintf("ENSG%08d", 42000+i) }

// entryName builds Swiss-Prot-style variable-length entry names.
func entryName(w *world, i int) string {
	root := strings.ToUpper(nameRoots[i%len(nameRoots)])
	if len(root) > 4 {
		root = root[:4-(i%2)]
	}
	org := strings.ToUpper(strings.Split(w.organisms[i], " ")[0])
	if len(org) > 5 {
		org = org[:5]
	}
	return fmt.Sprintf("%s%d_%s", root, i%100, org)
}

// Generate builds the full corpus: swissprot, pdb, pir, go, omim, genbank.
func Generate(cfg Config) *Corpus {
	cfg.fill()
	w := newWorld(cfg)
	c := &Corpus{
		Gold: Gold{
			Primary:     make(map[string]string),
			Accession:   make(map[string]string),
			ForeignKeys: make(map[string][]rel.ForeignKey),
		},
	}
	c.Sources = append(c.Sources,
		genSwissProt(w, c),
		genPDB(w, c),
		genPIR(w, c),
		genGO(w, c),
		genOMIM(w, c),
		genGenBank(w, c),
	)
	return c
}

// corruptOrDrop applies xref noise: returns ("", false) when the xref is
// dropped, (garbage, true) when corrupted, (v, true) otherwise.
func corruptOrDrop(w *world, v string) (string, bool) {
	if w.rng.Float64() < w.cfg.Noise.XRefMissing {
		return "", false
	}
	if w.rng.Float64() < w.cfg.Noise.XRefCorruption {
		return fmt.Sprintf("ZZZ%06d", w.rng.Intn(1000000)), true
	}
	return v, true
}

// maybeComposite encodes an xref value as "DB:ACC" with the configured
// probability.
func maybeComposite(w *world, db, v string) string {
	if w.rng.Float64() < w.cfg.CompositeXRefFrac {
		return db + ":" + v
	}
	return v
}

// maybeViolateAccession corrupts the accession format per the noise knob.
func maybeViolateAccession(w *world, acc string) string {
	if w.rng.Float64() < w.cfg.Noise.AccessionViolation {
		if w.rng.Intn(2) == 0 {
			return fmt.Sprintf("%d", w.rng.Intn(100000)) // digits only
		}
		return acc[:2] // too short
	}
	return acc
}

func genSwissProt(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("swissprot")
	n := w.cfg.Proteins
	protein := db.Create("protein", rel.TextSchema(
		"protein_id", "accession", "entry_name", "description", "organism"))
	seqrel := db.Create("sequence", rel.TextSchema("seq_id", "protein_id", "seq"))
	dbref := db.Create("dbref", rel.TextSchema("dbref_id", "protein_id", "ref_value"))
	kw := db.Create("keyword", rel.TextSchema("kw_id", "protein_id", "keyword"))

	c.Gold.Primary["swissprot"] = "protein"
	c.Gold.Accession["swissprot"] = "accession"
	c.Gold.ForeignKeys["swissprot"] = []rel.ForeignKey{
		{FromRelation: "sequence", FromColumn: "protein_id", ToRelation: "protein", ToColumn: "protein_id"},
		{FromRelation: "dbref", FromColumn: "protein_id", ToRelation: "protein", ToColumn: "protein_id"},
		{FromRelation: "keyword", FromColumn: "protein_id", ToRelation: "protein", ToColumn: "protein_id"},
	}

	drSeq, kwSeq := 0, 0
	for i := 0; i < n; i++ {
		acc := maybeViolateAccession(w, uniprotAcc(i))
		pid := fmt.Sprintf("%d", i+1)
		desc := fmt.Sprintf("%s that %s", w.names[i], w.functions[i])
		protein.AppendRaw(pid, acc, entryName(w, i), desc, w.organisms[i])
		// Surrogate ranges are disjoint across tables, as real per-table
		// sequences eventually become; nested ranges are exercised by the
		// EqualDictionaries knob instead.
		seqrel.AppendRaw(fmt.Sprintf("%d", 1000+i), pid, w.sequences[i])
		// XRef to PDB.
		if v, ok := corruptOrDrop(w, w.pdbCodes[i]); ok {
			drSeq++
			corrupted := v != w.pdbCodes[i]
			dbref.AppendRaw(fmt.Sprintf("%d", drSeq), pid, maybeComposite(w, "PDB", v))
			if !corrupted {
				c.Gold.XRefs = append(c.Gold.XRefs, GoldLink{"swissprot", uniprotAcc(i), "pdb", w.pdbCodes[i]})
			}
		}
		// XRef to GO.
		if v, ok := corruptOrDrop(w, w.goTerms[i]); ok {
			drSeq++
			corrupted := v != w.goTerms[i]
			dbref.AppendRaw(fmt.Sprintf("%d", drSeq), pid, v)
			if !corrupted {
				c.Gold.TermXRefs = append(c.Gold.TermXRefs, GoldLink{"swissprot", uniprotAcc(i), "go", w.goTerms[i]})
			}
		}
		for k := 0; k < 2; k++ {
			kwSeq++
			kw.AppendRaw(fmt.Sprintf("%d", kwSeq), pid,
				functionObjects[(i+k*11)%len(functionObjects)])
		}
	}
	if w.cfg.Noise.EqualDictionaries {
		// Two dictionary tables with identical integer key sets (§4.2
		// confusion case) referenced from a shared column.
		d1 := db.Create("dict_method", rel.TextSchema("id", "label"))
		d2 := db.Create("dict_status", rel.TextSchema("id", "label"))
		for i := 1; i <= 5; i++ {
			d1.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("method-%d", i))
			d2.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("status-%d", i))
		}
		f := db.Create("evidence", rel.TextSchema("ev_id", "protein_id", "method_ref"))
		for i := 0; i < n; i++ {
			f.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", (i%5)+1))
		}
		c.Gold.ForeignKeys["swissprot"] = append(c.Gold.ForeignKeys["swissprot"],
			rel.ForeignKey{FromRelation: "evidence", FromColumn: "protein_id", ToRelation: "protein", ToColumn: "protein_id"},
			rel.ForeignKey{FromRelation: "evidence", FromColumn: "method_ref", ToRelation: "dict_method", ToColumn: "id"},
		)
	}
	return db
}

func genPDB(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("pdb")
	n := w.cfg.Proteins
	structure := db.Create("structure", rel.TextSchema(
		"structure_id", "pdb_code", "title", "method"))
	chain := db.Create("chain", rel.TextSchema("chain_id", "structure_id", "chain_seq"))

	c.Gold.Primary["pdb"] = "structure"
	c.Gold.Accession["pdb"] = "pdb_code"
	c.Gold.ForeignKeys["pdb"] = []rel.ForeignKey{
		{FromRelation: "chain", FromColumn: "structure_id", ToRelation: "structure", ToColumn: "structure_id"},
	}
	methods := []string{"X-RAY DIFFRACTION", "SOLUTION NMR", "ELECTRON MICROSCOPY"}
	for i := 0; i < n; i++ {
		sid := fmt.Sprintf("%d", i+1)
		// Titles name the protein but, as in real PDB, do not repeat the
		// functional annotation prose.
		title := fmt.Sprintf("crystal structure of %s at %d.%d angstrom resolution",
			w.names[i], 1+i%3, i%10)
		structure.AppendRaw(sid, w.pdbCodes[i], title, methods[i%len(methods)])
		mutated := mutate(w.rng, w.sequences[i], w.cfg.Noise.SeqMutation)
		chain.AppendRaw(sid, sid, mutated)
		c.Gold.Homologs = append(c.Gold.Homologs, GoldLink{"swissprot", uniprotAcc(i), "pdb", w.pdbCodes[i]})
	}
	return db
}

// noisyCopy perturbs a field value with the duplicate-noise rate: it
// swaps in a qualifier word, emulating cross-source wording drift.
func noisyCopy(w *world, v string) string {
	if w.rng.Float64() >= w.cfg.Noise.DuplicateFieldNoise {
		return v
	}
	words := strings.Fields(v)
	if len(words) == 0 {
		return v
	}
	i := w.rng.Intn(len(words))
	words[i] = nameQualifiers[w.rng.Intn(len(nameQualifiers))]
	return strings.Join(words, " ")
}

func genPIR(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("pir")
	n := int(float64(w.cfg.Proteins) * w.cfg.PIROverlap)
	entry := db.Create("pirentry", rel.TextSchema(
		"pirentry_id", "pir_acc", "protein_name", "species", "function_note"))
	c.Gold.Primary["pir"] = "pirentry"
	c.Gold.Accession["pir"] = "pir_acc"
	for i := 0; i < n; i++ {
		// PIR definition lines repeat the protein name, as real entries do.
		entry.AppendRaw(fmt.Sprintf("%d", i+1), pirAcc(i),
			noisyCopy(w, w.names[i]), w.organisms[i],
			noisyCopy(w, fmt.Sprintf("protein %s %s", w.names[i], w.functions[i])))
		c.Gold.Duplicates = append(c.Gold.Duplicates, GoldLink{"swissprot", uniprotAcc(i), "pir", pirAcc(i)})
	}
	// PIR-only entries (no duplicates). Names carry a distinguishing
	// multi-character token (orphan ids), as real uncharacterized-protein
	// names do.
	for i := 0; i < w.cfg.Proteins/5; i++ {
		entry.AppendRaw(fmt.Sprintf("%d", n+i+1), pirAcc(9000+i),
			fmt.Sprintf("uncharacterized orphan family member y%d", i+10),
			organisms[i%len(organisms)],
			fmt.Sprintf("putative reader of %s", functionObjects[(i*3)%len(functionObjects)]))
	}
	return db
}

func genGO(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("go")
	term := db.Create("term", rel.TextSchema("term_id", "go_acc", "term_name", "definition"))
	isa := db.Create("term_isa", rel.TextSchema("isa_id", "term_id", "parent_term_id"))
	c.Gold.Primary["go"] = "term"
	c.Gold.Accession["go"] = "go_acc"
	c.Gold.ForeignKeys["go"] = []rel.ForeignKey{
		{FromRelation: "term_isa", FromColumn: "term_id", ToRelation: "term", ToColumn: "term_id"},
	}
	c.Gold.ForeignKeys["go"] = append(c.Gold.ForeignKeys["go"],
		rel.ForeignKey{FromRelation: "term_isa", FromColumn: "parent_term_id", ToRelation: "term", ToColumn: "term_id"})
	for i := 0; i < 10; i++ {
		term.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("GO:%07d", 1000+i),
			fmt.Sprintf("%s handling process", functionObjects[i%len(functionObjects)]),
			fmt.Sprintf("the controlled process of %s within the cell", functionObjects[i%len(functionObjects)]))
		if i > 0 {
			isa.AppendRaw(fmt.Sprintf("%d", 700+i), fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", (i/2)+1))
		}
	}
	return db
}

func genOMIM(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("omim")
	disease := db.Create("disease", rel.TextSchema(
		"disease_id", "mim_number", "disease_name", "clinical_text"))
	xref := db.Create("gene_xref", rel.TextSchema("xref_id", "disease_id", "uniprot_ref"))
	c.Gold.Primary["omim"] = "disease"
	c.Gold.Accession["omim"] = "mim_number"
	c.Gold.ForeignKeys["omim"] = []rel.ForeignKey{
		{FromRelation: "gene_xref", FromColumn: "disease_id", ToRelation: "disease", ToColumn: "disease_id"},
	}
	xSeq := 0
	for d, pi := range w.mimAssoc {
		did := fmt.Sprintf("%d", d+1)
		mim := mimAcc(d)
		// Clinical text mentions the protein's entry name -> entity link.
		text := fmt.Sprintf("patients with defects in %s show impaired %s and related symptoms",
			entryName(w, pi), functionObjects[pi%len(functionObjects)])
		disease.AppendRaw(did, mim, fmt.Sprintf("%s deficiency syndrome %d", nameRoots[pi%len(nameRoots)], d), text)
		c.Gold.EntityLinks = append(c.Gold.EntityLinks, GoldLink{"omim", mim, "swissprot", uniprotAcc(pi)})
		// Explicit xref to swissprot.
		if v, ok := corruptOrDrop(w, uniprotAcc(pi)); ok {
			xSeq++
			corrupted := v != uniprotAcc(pi)
			xref.AppendRaw(fmt.Sprintf("%d", 500+xSeq), did, maybeComposite(w, "Uniprot", v))
			if !corrupted {
				c.Gold.XRefs = append(c.Gold.XRefs, GoldLink{"omim", mim, "swissprot", uniprotAcc(pi)})
			}
		}
	}
	return db
}

func genGenBank(w *world, c *Corpus) *rel.Database {
	db := rel.NewDatabase("genbank")
	n := w.cfg.Proteins
	gene := db.Create("gene", rel.TextSchema("gene_id", "gene_acc", "gene_desc"))
	genomic := db.Create("genomic_seq", rel.TextSchema("gseq_id", "gene_id", "nucleotide_seq"))
	goref := db.Create("go_annotation", rel.TextSchema("ann_id", "gene_id", "go_term_ref"))
	c.Gold.Primary["genbank"] = "gene"
	c.Gold.Accession["genbank"] = "gene_acc"
	c.Gold.ForeignKeys["genbank"] = []rel.ForeignKey{
		{FromRelation: "genomic_seq", FromColumn: "gene_id", ToRelation: "gene", ToColumn: "gene_id"},
		{FromRelation: "go_annotation", FromColumn: "gene_id", ToRelation: "gene", ToColumn: "gene_id"},
	}
	aSeq := 0
	for i := 0; i < n; i++ {
		gid := fmt.Sprintf("%d", i+1)
		gene.AppendRaw(gid, geneAcc(i),
			fmt.Sprintf("gene encoding %s located on chromosome %d", w.names[i], 1+i%22))
		genomic.AppendRaw(fmt.Sprintf("%d", 2000+i), gid, mutate(w.rng, w.sequences[i], w.cfg.Noise.SeqMutation))
		c.Gold.Homologs = append(c.Gold.Homologs, GoldLink{"genbank", geneAcc(i), "swissprot", uniprotAcc(i)})
		// Homology is transitive through the shared base sequence: the
		// genbank gene and the pdb chain of the same protein are homologs
		// too.
		c.Gold.Homologs = append(c.Gold.Homologs, GoldLink{"genbank", geneAcc(i), "pdb", w.pdbCodes[i]})
		if v, ok := corruptOrDrop(w, w.goTerms[i]); ok {
			aSeq++
			corrupted := v != w.goTerms[i]
			goref.AppendRaw(fmt.Sprintf("%d", 900+aSeq), gid, v)
			if !corrupted {
				c.Gold.TermXRefs = append(c.Gold.TermXRefs, GoldLink{"genbank", geneAcc(i), "go", w.goTerms[i]})
			}
		}
	}
	return db
}
