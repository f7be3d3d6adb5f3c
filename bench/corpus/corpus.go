// Package corpus generates the benchmark's inputs: flat files in the
// exchange formats aladind ingests (EMBL/Swiss-Prot, GenBank, FASTA, OBO)
// together with the truth about them — primary relation, accession
// column, per-record descriptions, and the cross-reference, sequence and
// duplicate links the integration pipeline is supposed to find.
//
// The generators are independent of internal/datagen (the demo corpus,
// whose PDB codes repeat past 360 proteins): accessions here are unique
// at any size, and the same (seed, size) always yields byte-identical
// text, so the server only ever sees files that can be regenerated from
// the command line.
package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Link types, named as /v1/stats and the browse view name them.
const (
	XRef      = "xref"
	Sequence  = "sequence"
	Duplicate = "duplicate"
)

// Ref names one primary object.
type Ref struct{ Source, Accession string }

// Link is one gold link. Links are undirected: A sorts before B.
type Link struct {
	Type string
	A, B Ref
}

// NewLink builds the canonical (endpoint-sorted) form of a link.
func NewLink(typ string, a, b Ref) Link {
	if b.Source < a.Source || (b.Source == a.Source && b.Accession < a.Accession) {
		a, b = b, a
	}
	return Link{Type: typ, A: a, B: b}
}

// File is one generated flat file and the truth about it.
type File struct {
	Source string // name it is uploaded under
	Format string // embl, genbank, fasta or obo
	Text   []byte

	// Primary and AccessionColumn are what structure discovery (§4.2)
	// should report; DescColumn holds Desc.
	Primary, AccessionColumn, DescColumn string

	// Per record, in file order. Desc is unique per record: a point
	// lookup by Acc[i] must return Desc[i]. Token is the one word of
	// Desc[i] no other record carries, so searching for it must rank
	// Acc[i] first.
	Acc, Desc, Token []string
	// Seq is the record's sequence (nil for OBO).
	Seq []string
	// Organism, Keywords and Term (the GO term the entry's DR line names,
	// "" without an ontology) are filled for EMBL only; the scan, join,
	// GROUP BY and DISTINCT checks are computed from them.
	Organism []string
	Keywords [][]string
	Term     []string
}

// Records is the number of logical records in the file.
func (f *File) Records() int { return len(f.Acc) }

var (
	organisms = []string{"Homo sapiens", "Mus musculus", "Rattus norvegicus",
		"Danio rerio", "Drosophila melanogaster", "Saccharomyces cerevisiae",
		"Arabidopsis thaliana", "Escherichia coli"}
	roots = []string{"hemoglobin", "myoglobin", "insulin", "keratin", "cytochrome",
		"lysozyme", "trypsin", "catalase", "albumin", "ferritin", "collagen",
		"elastin", "actin", "myosin", "tubulin", "kinesin", "dynein",
		"calmodulin", "ubiquitin", "thrombin"}
	roles = []string{"kinase", "transporter", "receptor", "polymerase", "chaperone",
		"protease", "ligase", "reductase", "synthase", "isomerase"}
	processes = []string{"oxygen transport", "glucose regulation", "electron transfer",
		"cell wall hydrolysis", "protein digestion", "signal transduction",
		"membrane fusion", "chromatin remodeling", "lipid storage", "ion homeostasis"}
	keywords = []string{"Acetylation", "Glycoprotein", "Membrane", "Nucleus", "Cytoplasm",
		"Phosphoprotein", "Secreted", "Zinc", "Repeat", "Signal", "Transport",
		"Hydrolase", "Transferase", "Oxidoreductase", "Metal-binding", "Disulfide bond",
		"Mitochondrion", "Calcium", "ATP-binding", "DNA-binding", "Receptor",
		"Transmembrane", "Lipoprotein", "Ubl conjugation", "Methylation",
		"Coiled coil", "Cell cycle", "Apoptosis", "Immunity", "Kinase"}
)

func dna(rng *rand.Rand, n int) string {
	const bases = "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return string(b)
}

// mutate substitutes about rate of the bases.
func mutate(rng *rand.Rand, s string, rate float64) string {
	const bases = "ACGT"
	b := []byte(s)
	for i := range b {
		if rng.Float64() < rate {
			b[i] = bases[rng.Intn(4)]
		}
	}
	return string(b)
}

// wrap writes s in lines of width characters, each prefixed by indent.
func wrap(w *bytes.Buffer, s, indent string, width int) {
	for len(s) > width {
		w.WriteString(indent)
		w.WriteString(s[:width])
		w.WriteByte('\n')
		s = s[width:]
	}
	w.WriteString(indent)
	w.WriteString(s)
	w.WriteByte('\n')
}

// FASTA generates records start..start+n-1 of a FASTA corpus: unique
// accessions ("SQ0000001", ...), a searchable description, and a sequence
// of minLen to 2*minLen-1 bases. Sequences shorter than 40 on average are
// not sequence fields to the profiler (§4.4), so a file of short reads is
// exempt from the quadratic cross-source sequence comparison. Every
// dupEvery-th record (0 = never) is a planted duplicate of an
// earlier record of the same file: a new accession and lot number, the
// same description words and a lightly mutated copy of the sequence. The
// returned links pair every copy with its original and with every other
// copy of it: copies of one record are duplicates of each other too.
func FASTA(seed int64, source string, start, n, minLen, dupEvery int) (*File, []Link) {
	rng := rand.New(rand.NewSource(seed ^ int64(start)*7919))
	f := &File{Source: source, Format: "fasta", Primary: "fasta",
		AccessionColumn: "accession", DescColumn: "description"}
	var buf bytes.Buffer
	var gold []Link
	first := make([]int, n)   // record -> the record it descends from
	copies := map[int][]int{} // that record -> itself and its copies so far
	for i := 0; i < n; i++ {
		k := start + i
		first[i] = i
		acc := fmt.Sprintf("SQ%07d", k+1)
		var desc, seq string
		token := fmt.Sprintf("u%07dx", k+1)
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			// The copy keeps the original's words, clone id included (the
			// rare shared token sorted-neighbourhood blocking keys on), and
			// differs in its lot number and a few bases.
			orig := rng.Intn(i)
			desc = strings.Replace(f.Desc[orig], f.Token[orig], token, 1)
			seq = mutate(rng, f.Seq[orig], 0.01)
			first[i] = first[orig]
			if copies[first[i]] == nil {
				copies[first[i]] = []int{first[i]}
			}
			for _, j := range copies[first[i]] {
				gold = append(gold, NewLink(Duplicate, Ref{source, f.Acc[j]}, Ref{source, acc}))
			}
			copies[first[i]] = append(copies[first[i]], i)
		} else {
			desc = fmt.Sprintf("%s %s %s clone c%07dx lot %s", strings.ToLower(organisms[rng.Intn(len(organisms))]),
				roots[rng.Intn(len(roots))], roles[rng.Intn(len(roles))], k+1, token)
			seq = dna(rng, minLen+rng.Intn(minLen))
		}
		f.Acc = append(f.Acc, acc)
		f.Desc = append(f.Desc, desc)
		f.Token = append(f.Token, token)
		f.Seq = append(f.Seq, seq)
		fmt.Fprintf(&buf, ">%s %s\n", acc, desc)
		wrap(&buf, seq, "", 60)
	}
	f.Text = buf.Bytes()
	return f, gold
}

// EMBLAccession is the accession of EMBL record i.
func EMBLAccession(i int) string { return fmt.Sprintf("P%06d", 100000+i) }

// TermAccession is the accession of OBO term i.
func TermAccession(i int) string { return fmt.Sprintf("GO:%07d", 1000+i) }

// EMBL generates n Swiss-Prot-style entries: one AC, a unique DE line, an
// organism, 5 keywords, 3 DR cross-references (one of them to one of
// terms OBO terms, when terms > 0), 2 comments and a 150-249 base
// sequence.
func EMBL(seed int64, source string, n, terms int) *File {
	rng := rand.New(rand.NewSource(seed))
	f := &File{Source: source, Format: "embl", Primary: "entry",
		AccessionColumn: "accession", DescColumn: "description"}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		acc := EMBLAccession(i)
		root := roots[rng.Intn(len(roots))]
		org := organisms[rng.Intn(len(organisms))]
		token := fmt.Sprintf("v%06de", i+1)
		desc := fmt.Sprintf("%s%s %s %s involved in %s.", strings.ToUpper(root[:1]), root[1:],
			roles[rng.Intn(len(roles))], token, processes[rng.Intn(len(processes))])
		perm := rng.Perm(len(keywords))[:5]
		sort.Ints(perm)
		kws := make([]string, len(perm))
		for j, p := range perm {
			kws[j] = keywords[p]
		}
		seq := dna(rng, 150+rng.Intn(100))

		// Entry names are unique and identifier-shaped, like Swiss-Prot's
		// (K1C9_MOUSE), but their lengths differ by more than a fifth (the
		// first two entries pin the extremes), so the §4.2 accession
		// heuristic passes them over in favour of the AC line.
		if i < 2 {
			root = []string{"actin", "calmodulin"}[i]
		}
		fmt.Fprintf(&buf, "ID   %s%d_%s   Reviewed;   %d BP.\n", strings.ToUpper(root), i+1,
			strings.ToUpper(strings.Fields(org)[0][:3]), len(seq))
		fmt.Fprintf(&buf, "AC   %s;\n", acc)
		fmt.Fprintf(&buf, "DE   %s\n", desc)
		fmt.Fprintf(&buf, "OS   %s.\n", org)
		term := ""
		if terms > 0 {
			// Round-robin, so every term is referenced equally often and
			// the cost of ranking an entry's neighbourhood does not depend
			// on which entries a seed happens to make popular.
			term = TermAccession(i % terms)
			fmt.Fprintf(&buf, "DR   GO; %s; -.\n", term)
		} else {
			fmt.Fprintf(&buf, "DR   InterPro; IPR%06d; -.\n", rng.Intn(200))
		}
		// DR targets come from small pools: link discovery declares a
		// column a cross-reference only when at least 5% of its distinct
		// values resolve in the target, so the GO terms must not drown.
		fmt.Fprintf(&buf, "DR   PDB; %dXY%d; X-ray.\n", 1+rng.Intn(9), rng.Intn(30))
		fmt.Fprintf(&buf, "DR   Pfam; PF%05d; %s.\n", rng.Intn(150), root)
		fmt.Fprintf(&buf, "KW   %s.\n", strings.Join(kws, "; "))
		fmt.Fprintf(&buf, "CC   -!- FUNCTION: Acts as a %s in %s.\n", roles[rng.Intn(len(roles))],
			processes[rng.Intn(len(processes))])
		fmt.Fprintf(&buf, "CC   -!- SUBUNIT: Interacts with %s under %s conditions.\n",
			roots[rng.Intn(len(roots))], []string{"oxidative", "hypoxic", "basal", "stress"}[rng.Intn(4)])
		fmt.Fprintf(&buf, "SQ   SEQUENCE   %d BP;\n", len(seq))
		wrap(&buf, seq, "     ", 60)
		buf.WriteString("//\n")

		f.Acc = append(f.Acc, acc)
		f.Desc = append(f.Desc, desc)
		f.Token = append(f.Token, token)
		f.Seq = append(f.Seq, seq)
		f.Organism = append(f.Organism, org)
		f.Keywords = append(f.Keywords, kws)
		f.Term = append(f.Term, term)
	}
	f.Text = buf.Bytes()
	return f
}

// GenBank generates n records that point at target (an EMBL file): every
// record carries a /db_xref="UniProtKB:<acc>" to a distinct target entry
// (an xref link), and every second record's sequence is a 3%-mutated copy
// of that entry's sequence (a sequence link); the rest are unrelated.
// n must not exceed the target's size.
func GenBank(seed int64, source string, n int, target *File) (*File, []Link) {
	rng := rand.New(rand.NewSource(seed + 1))
	f := &File{Source: source, Format: "genbank", Primary: "entry",
		AccessionColumn: "accession", DescColumn: "definition"}
	var buf bytes.Buffer
	var gold []Link
	picks := rng.Perm(target.Records())[:n]
	for i := 0; i < n; i++ {
		acc := fmt.Sprintf("NM_%07d", 1000+i)
		t := picks[i]
		token := fmt.Sprintf("t%06dg", i+1)
		desc := fmt.Sprintf("%s %s transcript %s mRNA", target.Organism[t], roots[rng.Intn(len(roots))], token)
		var seq string
		me := Ref{source, acc}
		them := Ref{target.Source, target.Acc[t]}
		gold = append(gold, NewLink(XRef, me, them))
		if i%2 == 0 {
			seq = mutate(rng, target.Seq[t], 0.03)
			gold = append(gold, NewLink(Sequence, me, them))
		} else {
			seq = dna(rng, 150+rng.Intn(100))
		}
		fmt.Fprintf(&buf, "LOCUS       %s  %d bp  mRNA  linear\n", acc, len(seq))
		fmt.Fprintf(&buf, "DEFINITION  %s.\n", desc)
		fmt.Fprintf(&buf, "ACCESSION   %s\n", acc)
		fmt.Fprintf(&buf, "SOURCE      %s\n", target.Organism[t])
		buf.WriteString("FEATURES             Location/Qualifiers\n")
		fmt.Fprintf(&buf, "     CDS             1..%d\n", len(seq))
		fmt.Fprintf(&buf, "                     /db_xref=\"UniProtKB:%s\"\n", target.Acc[t])
		buf.WriteString("ORIGIN\n")
		low := strings.ToLower(seq)
		for off := 0; off < len(low); off += 60 {
			end := off + 60
			if end > len(low) {
				end = len(low)
			}
			fmt.Fprintf(&buf, "%9d %s\n", off+1, low[off:end])
		}
		buf.WriteString("//\n")
		f.Acc = append(f.Acc, acc)
		f.Desc = append(f.Desc, desc)
		f.Token = append(f.Token, token)
		f.Seq = append(f.Seq, seq)
	}
	f.Text = buf.Bytes()
	return f, gold
}

// TermLinks are the xref links from EMBL entries to the terms of an
// ontology uploaded as source.
func TermLinks(embl *File, source string) []Link {
	var gold []Link
	for i, t := range embl.Term {
		if t != "" {
			gold = append(gold, NewLink(XRef, Ref{embl.Source, embl.Acc[i]}, Ref{source, t}))
		}
	}
	return gold
}

// OBO generates an n-term ontology; every term but the first is_a an
// earlier one.
func OBO(seed int64, source string, n int) *File {
	rng := rand.New(rand.NewSource(seed + 2))
	f := &File{Source: source, Format: "obo", Primary: "term",
		AccessionColumn: "acc", DescColumn: "term_name"}
	var buf bytes.Buffer
	buf.WriteString("format-version: 1.2\n")
	for i := 0; i < n; i++ {
		acc := TermAccession(i)
		token := fmt.Sprintf("a%05dy", i+1)
		name := fmt.Sprintf("%s %s activity %s", processes[rng.Intn(len(processes))], roles[rng.Intn(len(roles))], token)
		fmt.Fprintf(&buf, "\n[Term]\nid: %s\nname: %s\nnamespace: molecular_function\n", acc, name)
		fmt.Fprintf(&buf, "def: \"Catalysis of %s step %d.\" [GOC:bench]\n", processes[rng.Intn(len(processes))], i+1)
		if i > 0 {
			fmt.Fprintf(&buf, "is_a: %s ! parent\n", TermAccession(rng.Intn(i)))
		}
		f.Acc = append(f.Acc, acc)
		f.Desc = append(f.Desc, name)
		f.Token = append(f.Token, token)
	}
	f.Text = buf.Bytes()
	return f
}
