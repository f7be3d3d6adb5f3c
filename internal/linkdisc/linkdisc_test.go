package linkdisc

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

// makeSource runs profiling + structural discovery over a database.
func makeSource(t *testing.T, db *rel.Database) *Source {
	t.Helper()
	return profiledSource(t, db, profile.Options{})
}

// profiledSource is makeSource profiling under popts.
func profiledSource(t *testing.T, db *rel.Database, popts profile.Options) *Source {
	t.Helper()
	profs, err := profile.ProfileDatabase(db, popts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &Source{DB: db, Structure: st, Profiles: profs}
}

// protSeq produces a deterministic pseudo-random protein-ish DNA sequence.
func protSeq(seed, n int) string {
	bases := "ACGT"
	b := make([]byte, n)
	x := uint32(seed*2654435761 + 1)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = bases[x%4]
	}
	return string(b)
}

// mutateSeq flips roughly rate*len positions deterministically.
func mutateSeq(s string, seed int, rate float64) string {
	bases := "ACGT"
	b := []byte(s)
	x := uint32(seed*1103515245 + 12345)
	step := int(1 / rate)
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(b); i += step {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = bases[x%4]
	}
	return string(b)
}

// uniprotLike builds a Swiss-Prot-style source: protein primary relation
// with description + sequence, and a dbref table with composite-encoded
// cross-references to PDB.
func uniprotLike(t *testing.T) *Source {
	db := rel.NewDatabase("uniprot")
	protein := db.Create("protein", rel.TextSchema("protein_id", "accession", "entry_name", "description"))
	seqrel := db.Create("sequence", rel.TextSchema("protein_id", "seq"))
	dbref := db.Create("dbref", rel.TextSchema("dbref_id", "protein_id", "target"))
	descs := []string{
		"Hemoglobin subunit alpha transports oxygen in red blood cells",
		"Myoglobin stores oxygen within muscle tissue fibers",
		"Insulin hormone regulates blood glucose concentration levels",
		"Keratin structural protein of hair nails and skin",
		"Cytochrome c participates in the electron transport chain",
		"Lysozyme enzyme degrades bacterial cell wall peptidoglycan",
		"Trypsin serine protease digests dietary proteins in gut",
		"Catalase enzyme decomposes hydrogen peroxide to water",
		"Tumor suppressor protein regulates the cell division cycle",
		"Albumin carrier protein maintains blood osmotic pressure",
	}
	// Entry names vary in length like real Swiss-Prot names (HBA_HUMAN,
	// K1C9_MOUSE), so the 20% length-spread rule rejects them.
	entryNames := []string{"HBA_HUMAN", "MYG_HUMAN", "INS_RAT", "K1C9_MOUSE",
		"CYC_BOVIN", "ALBU_HUMAN", "LYSC_CHICK", "TRY_PIG", "CATA_HUMAN", "P53_HUMAN"}
	for i := 0; i < 10; i++ {
		acc := fmt.Sprintf("P%05d", 10000+i)
		protein.AppendRaw(fmt.Sprintf("%d", i+1), acc, entryNames[i], descs[i])
		seqrel.AppendRaw(fmt.Sprintf("%d", i+1), protSeq(i, 200))
		// Composite-encoded xref to PDB ("PDB:1AB0" style).
		dbref.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", i+1), fmt.Sprintf("PDB:%dXY%d", i+1, i))
	}
	return makeSource(t, db)
}

// pdbLike builds a PDB-style source: structures with accession "1XY0"...,
// mutated copies of the uniprot sequences, and paraphrased descriptions.
func pdbLike(t *testing.T) *Source {
	db := rel.NewDatabase("pdb")
	structure := db.Create("structure", rel.TextSchema("structure_id", "pdb_code", "title"))
	chains := db.Create("chain", rel.TextSchema("chain_id", "structure_id", "chain_seq"))
	titles := []string{
		"Crystal structure of hemoglobin alpha oxygen transport protein",
		"Solution structure of myoglobin oxygen storage muscle protein",
		"Insulin hormone crystal form regulating glucose levels",
		"Keratin filament structural protein fragment",
		"Cytochrome c electron transport chain component structure",
		"Lysozyme bacterial cell wall degrading enzyme structure",
		"Trypsin protease structure with bound inhibitor",
		"Catalase hydrogen peroxide decomposition enzyme",
		"Cell cycle tumor suppressor DNA binding domain",
		"Serum albumin carrier protein crystal structure",
	}
	for i := 0; i < 10; i++ {
		code := fmt.Sprintf("%dXY%d", i+1, i)
		structure.AppendRaw(fmt.Sprintf("%d", i+1), code, titles[i])
		chains.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", i+1), mutateSeq(protSeq(i, 200), i, 0.05))
	}
	return makeSource(t, db)
}

// goLike builds a small ontology source.
func goLike(t *testing.T) *Source {
	db := rel.NewDatabase("go")
	term := db.Create("term", rel.TextSchema("term_id", "go_acc", "term_name"))
	for i := 0; i < 5; i++ {
		term.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("GO:00%05d", 1000+i),
			fmt.Sprintf("molecular function class %d", i))
	}
	return makeSource(t, db)
}

func TestFixtureStructures(t *testing.T) {
	up := uniprotLike(t)
	if up.Structure.Primary != "protein" {
		t.Fatalf("uniprot primary = %q (scores %v)", up.Structure.Primary, up.Structure.PrimaryScores)
	}
	if up.Structure.PrimaryAccession != "accession" {
		t.Fatalf("uniprot accession col = %q", up.Structure.PrimaryAccession)
	}
	pdb := pdbLike(t)
	if pdb.Structure.Primary != "structure" {
		t.Fatalf("pdb primary = %q (scores %v)", pdb.Structure.Primary, pdb.Structure.PrimaryScores)
	}
}

func newEngine(t *testing.T, opts Options, sources ...*Source) *Engine {
	t.Helper()
	e := New(opts)
	for _, s := range sources {
		if err := e.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestXRefDiscoveryComposite(t *testing.T) {
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true},
		uniprotLike(t), pdbLike(t))
	links, xattrs, stats := e.DiscoverAll()
	// The dbref.target attribute must be found as a composite xref.
	found := false
	for _, x := range xattrs {
		if x.FromSource == "uniprot" && x.FromRelation == "dbref" && x.FromColumn == "target" && x.ToSource == "pdb" {
			found = true
			if !x.Composite {
				t.Error("dbref.target should be recognized as composite-encoded")
			}
			if x.MatchFrac < 0.99 {
				t.Errorf("match fraction = %v", x.MatchFrac)
			}
		}
	}
	if !found {
		t.Fatalf("dbref.target xref attribute not found: %+v (stats %+v)", xattrs, stats)
	}
	// All ten object links must be present, linking P1000i -> iXYi.
	xrefLinks := 0
	for _, l := range links {
		if l.Type != metadata.LinkXRef {
			continue
		}
		if l.From.Source == "uniprot" && l.To.Source == "pdb" {
			xrefLinks++
			wantTo := strings.TrimPrefix(l.To.Accession, "")
			if !strings.Contains(wantTo, "XY") {
				t.Errorf("unexpected target accession %q", l.To.Accession)
			}
		}
	}
	if xrefLinks != 10 {
		t.Errorf("uniprot->pdb xref links = %d want 10", xrefLinks)
	}
}

func TestXRefOwnersResolvedThroughPath(t *testing.T) {
	// dbref is a secondary relation: links must be attributed to the
	// owning protein accession, not to dbref surrogate ids.
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true},
		uniprotLike(t), pdbLike(t))
	links, _, _ := e.DiscoverAll()
	for _, l := range links {
		if l.Type == metadata.LinkXRef && l.From.Source == "uniprot" {
			if !strings.HasPrefix(l.From.Accession, "P1") {
				t.Errorf("xref from-object should be a protein accession, got %q", l.From.Accession)
			}
			if l.From.Relation != "protein" {
				t.Errorf("from relation = %q", l.From.Relation)
			}
		}
	}
}

func TestSequenceLinkDiscovery(t *testing.T) {
	e := newEngine(t, Options{DisableTextLinks: true, DisableEntityLinks: true},
		uniprotLike(t), pdbLike(t))
	links, _, _ := e.DiscoverAll()
	seqLinks := map[string]string{}
	for _, l := range links {
		if l.Type == metadata.LinkSequence && l.From.Source == "uniprot" {
			seqLinks[l.From.Accession] = l.To.Accession
		}
	}
	if len(seqLinks) < 8 {
		t.Fatalf("sequence links = %d want >= 8 (%v)", len(seqLinks), seqLinks)
	}
	// Check correct pairing for a sample: P10000's sequence mutated into
	// structure 1XY0.
	if got := seqLinks["P10000"]; got != "1XY0" {
		t.Errorf("P10000 homolog = %q want 1XY0", got)
	}
}

// TestProteinSequenceLinks: protein homologs whose shared 8-mers lie only
// on diagonals an insertion apart are linked, as they are by seeding
// alone: over 20 letters two shared 8-mers of strands this long beat
// chance.
func TestProteinSequenceLinks(t *testing.T) {
	const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"
	rng := rand.New(rand.NewSource(3))
	residues := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = aminoAcids[rng.Intn(len(aminoAcids))]
		}
		return b
	}
	up := rel.NewDatabase("uniprot")
	proteins := up.Create("protein", rel.TextSchema("protein_id", "accession", "seq"))
	pdb := rel.NewDatabase("pdb")
	chains := pdb.Create("chain", rel.TextSchema("chain_id", "pdb_code", "chain_seq"))
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		acc, code := fmt.Sprintf("P%05d", 20000+i), fmt.Sprintf("%dPR%d", i+1, i)
		s := residues(300)
		proteins.AppendRaw(fmt.Sprint(i+1), acc, string(s))
		// Every seventh residue changed, and the residues either side of
		// [40, 48) and [218, 226), but those kept: the homolog shares the
		// 8-mers at 40 and 218 and no other. Then 5 residues inserted at
		// 150 set the two on diagonals 5 apart.
		h := slices.Clone(s)
		for j := range h {
			if (j%7 == 3 || j == 39 || j == 48 || j == 217 || j == 226) && !(40 <= j && j < 48 || 218 <= j && j < 226) {
				h[j] = aminoAcids[(strings.IndexByte(aminoAcids, h[j])+1+rng.Intn(len(aminoAcids)-1))%len(aminoAcids)]
			}
		}
		chains.AppendRaw(fmt.Sprint(i+1), code, string(slices.Concat(h[:150], residues(5), h[150:])))
		want[acc] = code
	}
	e := newEngine(t, Options{DisableTextLinks: true, DisableEntityLinks: true}, makeSource(t, up), makeSource(t, pdb))
	links, _, stats := e.DiscoverAll()
	got := map[string]string{}
	for _, l := range links {
		if l.Type == metadata.LinkSequence && l.From.Source == "uniprot" {
			got[l.From.Accession] = l.To.Accession
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("sequence links %v, want %v", got, want)
	}
	if stats.SequenceAligned != stats.SequenceSeeded {
		t.Errorf("aligned %d of %d seeded pairs; want all", stats.SequenceAligned, stats.SequenceSeeded)
	}
}

func TestTextLinkDiscovery(t *testing.T) {
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableEntityLinks: true},
		uniprotLike(t), pdbLike(t))
	links, _, stats := e.DiscoverAll()
	textLinks := 0
	correct := 0
	for _, l := range links {
		if l.Type != metadata.LinkText {
			continue
		}
		textLinks++
		// Description i and title i share topic words; matched pairs
		// should mostly be the aligned indexes.
		var fi, ti int
		if l.From.Source == "uniprot" {
			fmt.Sscanf(l.From.Accession, "P%d", &fi)
			fi -= 10000
			fmt.Sscanf(strings.TrimRight(l.To.Accession[:1], "XY"), "%d", &ti)
			ti--
		} else {
			continue
		}
		if fi == ti {
			correct++
		}
	}
	if textLinks == 0 {
		t.Fatalf("no text links (stats %+v)", stats)
	}
	if correct == 0 {
		t.Errorf("no correctly aligned text links out of %d", textLinks)
	}
	if stats.TextComparisons == 0 {
		t.Error("text comparisons not counted")
	}
}

func TestEntityLinkDiscovery(t *testing.T) {
	// Build a disease source whose text mentions uniprot entry names.
	db := rel.NewDatabase("omim")
	disease := db.Create("disease", rel.TextSchema("disease_id", "mim_acc", "disease_text"))
	disease.AppendRaw("1", "MIM00001", "Anemia involves the HBA_HUMAN gene product in erythrocytes")
	disease.AppendRaw("2", "MIM00002", "Diabetes relates to INS_RAT hormone signaling pathway")
	disease.AppendRaw("3", "MIM00003", "This disease mentions no known protein names at all here")
	omim := makeSource(t, db)
	if omim.Structure.Primary != "disease" {
		t.Fatalf("omim primary = %q", omim.Structure.Primary)
	}
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true},
		omim, uniprotLike(t))
	links, _, _ := e.DiscoverAll()
	entity := map[string]string{}
	for _, l := range links {
		if l.Type == metadata.LinkText && strings.HasPrefix(l.Method, "entity:") {
			entity[l.From.Accession] = l.To.Accession
		}
	}
	if entity["MIM00001"] != "P10000" {
		t.Errorf("MIM00001 should link to P10000 via ENTRY0_HUMAN: %v", entity)
	}
	if entity["MIM00002"] != "P10002" {
		t.Errorf("MIM00002 should link to P10002: %v", entity)
	}
	if _, ok := entity["MIM00003"]; ok {
		t.Error("MIM00003 has no entity mentions but got a link")
	}
}

func TestOntologyDerivedLinks(t *testing.T) {
	// Two sources whose objects xref the same GO terms.
	mk := func(name, accPrefix string) *Source {
		db := rel.NewDatabase(name)
		main := db.Create("main", rel.TextSchema("main_id", "acc", "go_ref"))
		for i := 0; i < 6; i++ {
			// Objects i and i+1 share term GO:0001000+i/2*... simpler:
			// object i references term i%3.
			main.AppendRaw(fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%s%04d", accPrefix, i),
				fmt.Sprintf("GO:00%05d", 1000+(i%3)))
		}
		return makeSource(t, db)
	}
	a, b, g := mk("srca", "AA"), mk("srcb", "BB"), goLike(t)
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true},
		a, b, g)
	links, _, _ := e.DiscoverAll()
	derived := e.DeriveOntologyLinks(links, "go")
	if len(derived) == 0 {
		t.Fatalf("no derived ontology links; base links: %d", len(links))
	}
	crossOnly := true
	for _, l := range derived {
		if l.Type != metadata.LinkOntology {
			t.Errorf("wrong type %v", l.Type)
		}
		if strings.EqualFold(l.From.Source, l.To.Source) {
			crossOnly = false
		}
	}
	if !crossOnly {
		t.Error("derived links must connect different sources")
	}
}

func TestOntologyFanoutCap(t *testing.T) {
	// A hub term referenced by many objects must be skipped.
	var links []metadata.Link
	for i := 0; i < 30; i++ {
		links = append(links, metadata.Link{
			Type: metadata.LinkXRef,
			From: metadata.ObjectRef{Source: fmt.Sprintf("s%d", i%2), Relation: "m", Accession: fmt.Sprintf("A%d", i)},
			To:   metadata.ObjectRef{Source: "go", Relation: "term", Accession: "GO:HUB"},
		})
	}
	e := New(Options{})
	derived := e.DeriveOntologyLinks(links, "go")
	if len(derived) != 0 {
		t.Errorf("hub term should be skipped, got %d links", len(derived))
	}
}

func TestPruningAblation(t *testing.T) {
	up, pdb := uniprotLike(t), pdbLike(t)
	e1 := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true}, up, pdb)
	_, _, with := e1.DiscoverAll()
	e2 := newEngine(t, Options{DisablePruning: true, DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true}, up, pdb)
	_, _, without := e2.DiscoverAll()
	if with.AttributePairsChecked >= without.AttributePairsChecked {
		t.Errorf("pruning should reduce checked pairs: with=%d without=%d",
			with.AttributePairsChecked, without.AttributePairsChecked)
	}
	if with.AttributePairsPruned == 0 {
		t.Error("pruned counter not incremented")
	}
}

// TestDiscoverForIncremental runs the incremental addition mode of §3:
// discovery for a new source against the registered ones, both
// directions tried, finds the uniprot->pdb links of the full run.
func TestDiscoverForIncremental(t *testing.T) {
	up, pdb := uniprotLike(t), pdbLike(t)
	e := newEngine(t, Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true}, up)
	links, _, _, err := e.DiscoverAgainst(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range links {
		if l.Type == metadata.LinkXRef && l.From.Source == "uniprot" {
			n++
		}
	}
	if n != 10 {
		t.Errorf("incremental xref links = %d want 10", n)
	}
	if _, _, _, err := e.DiscoverAgainst(context.Background(), up); err == nil {
		t.Error("a registered source should be refused")
	}
}

func TestAddSourceValidation(t *testing.T) {
	e := New(Options{})
	if err := e.AddSource(&Source{DB: rel.NewDatabase("x")}); err == nil {
		t.Error("source without structure should be rejected")
	}
	s := uniprotLike(t)
	if err := e.AddSource(s); err != nil {
		t.Fatal(err)
	}
	dup := uniprotLike(t)
	if err := e.AddSource(dup); err == nil {
		t.Error("duplicate source name should be rejected")
	}
}

func TestCompositeParts(t *testing.T) {
	cases := []struct {
		in   string
		want string // expected extractable accession part
	}{
		{"Uniprot:P11140", "P11140"},
		{"PDB/1ABC", "1ABC"},
		{"db|X99999", "X99999"},
		{"acc=GO123", "GO123"},
		{"plain", "plain"},
	}
	for _, c := range cases {
		parts := CompositeParts(c.in)
		found := false
		for _, p := range parts {
			if p == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("CompositeParts(%q) = %v; missing %q", c.in, parts, c.want)
		}
	}
	if parts := CompositeParts("  "); parts != nil {
		t.Errorf("blank input = %v", parts)
	}
}

// TestOwnersPrimaryAndSecondary reads the ownership table AddSource
// builds: a primary tuple owns itself, a dbref tuple belongs to the
// protein it references.
func TestOwnersPrimaryAndSecondary(t *testing.T) {
	up := uniprotLike(t)
	newEngine(t, Options{}, up)
	if owners := up.Owners().Of("protein", 0); !slices.Equal(owners, []string{"P10000"}) {
		t.Errorf("primary owners = %v", owners)
	}
	// dbref tuple 3 belongs to protein 4 (P10003).
	if owners := up.Owners().Of("dbref", 3); !slices.Equal(owners, []string{"P10003"}) {
		t.Errorf("dbref owners = %v", owners)
	}
}

func TestOwnersMissingRelation(t *testing.T) {
	up := uniprotLike(t)
	owners := discovery.OwnersOf(up.DB, up.Structure)
	if got := owners.Of("nosuch", 0); got != nil {
		t.Errorf("missing relation owners = %v", got)
	}
	if got := owners.Of("protein", 10); got != nil {
		t.Errorf("owners past the last tuple = %v", got)
	}
}
