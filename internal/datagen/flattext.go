package datagen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// The flat-file corpus of link-discovery tests and benchmarks that need
// sources as the parsers produce them: Swiss-Prot-style EMBL entries,
// GenBank records cross-referencing them, and an OBO ontology their DR
// lines name. Same arguments → byte-identical output.

var (
	flatRoots = []string{"hemoglobin", "myoglobin", "insulin", "keratin", "cytochrome",
		"lysozyme", "trypsin", "catalase", "albumin", "ferritin", "collagen", "actin",
		"myosin", "tubulin", "kinesin", "calmodulin", "ubiquitin", "thrombin"}
	flatRoles = []string{"kinase", "transporter", "receptor", "polymerase", "chaperone",
		"protease", "ligase", "reductase", "synthase", "isomerase"}
	flatProcesses = []string{"oxygen transport", "glucose regulation", "electron transfer",
		"cell wall hydrolysis", "protein digestion", "signal transduction",
		"membrane fusion", "chromatin remodeling", "lipid storage", "ion homeostasis"}
	flatOrganisms = []string{"Homo sapiens", "Mus musculus", "Rattus norvegicus",
		"Danio rerio", "Drosophila melanogaster", "Saccharomyces cerevisiae"}
	flatKeywords = []string{"Acetylation", "Glycoprotein", "Membrane", "Nucleus", "Cytoplasm",
		"Phosphoprotein", "Secreted", "Zinc", "Repeat", "Signal", "Transport",
		"Hydrolase", "Transferase", "Metal-binding", "Disulfide bond", "Calcium"}
)

// EMBLAccession is the accession of EMBLText's entry i.
func EMBLAccession(i int) string { return fmt.Sprintf("P%06d", 100000+i) }

// TermAccession is the accession of OBOText's term i.
func TermAccession(i int) string { return fmt.Sprintf("GO:%07d", 1000+i) }

// EMBLText writes n Swiss-Prot-style entries to w: a unique entry name,
// one AC line, a DE line, an organism, four keywords, three DR lines —
// one to OBOText's term i%terms when terms > 0, one to PDB, one to
// Pfam — two CC comments and a 150-249 base sequence.
func EMBLText(w io.Writer, n, terms int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		root := flatRoots[rng.Intn(len(flatRoots))]
		org := flatOrganisms[rng.Intn(len(flatOrganisms))]
		seq := randomDNA(rng, 150+rng.Intn(100))
		fmt.Fprintf(bw, "ID   %s%d_%s   Reviewed;   %d BP.\n", strings.ToUpper(root), i+1,
			strings.ToUpper(org[:3]), len(seq))
		fmt.Fprintf(bw, "AC   %s;\n", EMBLAccession(i))
		fmt.Fprintf(bw, "DE   %s%s %s v%06de involved in %s.\n", strings.ToUpper(root[:1]), root[1:],
			flatRoles[rng.Intn(len(flatRoles))], i+1, flatProcesses[rng.Intn(len(flatProcesses))])
		fmt.Fprintf(bw, "OS   %s.\n", org)
		if terms > 0 {
			fmt.Fprintf(bw, "DR   GO; %s; -.\n", TermAccession(i%terms))
		} else {
			fmt.Fprintf(bw, "DR   InterPro; IPR%06d; -.\n", rng.Intn(200))
		}
		fmt.Fprintf(bw, "DR   PDB; %dXY%d; X-ray.\n", 1+rng.Intn(9), rng.Intn(30))
		fmt.Fprintf(bw, "DR   Pfam; PF%05d; %s.\n", rng.Intn(150), root)
		var kws []string
		for _, k := range rng.Perm(len(flatKeywords))[:4] {
			kws = append(kws, flatKeywords[k])
		}
		fmt.Fprintf(bw, "KW   %s.\n", strings.Join(kws, "; "))
		fmt.Fprintf(bw, "CC   -!- FUNCTION: Acts as a %s in %s.\n", flatRoles[rng.Intn(len(flatRoles))],
			flatProcesses[rng.Intn(len(flatProcesses))])
		fmt.Fprintf(bw, "CC   -!- SUBUNIT: Interacts with %s under %s conditions.\n",
			flatRoots[rng.Intn(len(flatRoots))], []string{"oxidative", "hypoxic", "basal", "stress"}[rng.Intn(4)])
		fmt.Fprintf(bw, "SQ   SEQUENCE   %d BP;\n", len(seq))
		for ; len(seq) > 0; seq = seq[min(60, len(seq)):] {
			fmt.Fprintf(bw, "     %s\n", seq[:min(60, len(seq))])
		}
		bw.WriteString("//\n")
	}
	return bw.Flush()
}

// GenBankText writes n GenBank records to w, record i cross-referencing
// (/db_xref="UniProtKB:<accession>") a distinct one of EMBLText's first
// emblN entries; n must not exceed emblN.
func GenBankText(w io.Writer, n, emblN int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 1))
	picks := rng.Perm(emblN)[:n]
	bw := bufio.NewWriter(w)
	for i, t := range picks {
		acc := fmt.Sprintf("NM_%07d", 1000+i)
		seq := strings.ToLower(randomDNA(rng, 150+rng.Intn(100)))
		fmt.Fprintf(bw, "LOCUS       %s  %d bp  mRNA  linear\n", acc, len(seq))
		fmt.Fprintf(bw, "DEFINITION  %s %s transcript t%06dg mRNA.\n",
			flatOrganisms[rng.Intn(len(flatOrganisms))], flatRoots[rng.Intn(len(flatRoots))], i+1)
		fmt.Fprintf(bw, "ACCESSION   %s\n", acc)
		bw.WriteString("FEATURES             Location/Qualifiers\n")
		fmt.Fprintf(bw, "     CDS             1..%d\n", len(seq))
		fmt.Fprintf(bw, "                     /db_xref=\"UniProtKB:%s\"\n", EMBLAccession(t))
		bw.WriteString("ORIGIN\n")
		for off := 0; off < len(seq); off += 60 {
			fmt.Fprintf(bw, "%9d %s\n", off+1, seq[off:min(off+60, len(seq))])
		}
		bw.WriteString("//\n")
	}
	return bw.Flush()
}

// OBOText writes an n-term ontology to w; every term but the first is_a
// an earlier one.
func OBOText(w io.Writer, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 2))
	bw := bufio.NewWriter(w)
	bw.WriteString("format-version: 1.2\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "\n[Term]\nid: %s\nname: %s %s activity a%05dy\nnamespace: molecular_function\n",
			TermAccession(i), flatProcesses[rng.Intn(len(flatProcesses))], flatRoles[rng.Intn(len(flatRoles))], i+1)
		fmt.Fprintf(bw, "def: \"Catalysis of %s step %d.\" [GOC:gen]\n", flatProcesses[rng.Intn(len(flatProcesses))], i+1)
		if i > 0 {
			fmt.Fprintf(bw, "is_a: %s ! parent\n", TermAccession(rng.Intn(i)))
		}
	}
	return bw.Flush()
}
