package aladin

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// genbankText renders one GenBank entry per Swiss-Prot protein of the
// corpus: the protein's sequence in lower case, cross-referenced to it.
func genbankText(t *testing.T, corpus *datagen.Corpus) string {
	t.Helper()
	sp := corpus.Source("swissprot")
	prot, seqs := sp.Relation("protein"), sp.Relation("sequence")
	acc, s := prot.Schema.Index("accession"), seqs.Schema.Index("seq")
	var sb strings.Builder
	for i, tu := range seqs.Tuples {
		sequence := strings.ToLower(tu[s].AsString())
		fmt.Fprintf(&sb, "LOCUS       NM_%07d  %d bp  mRNA  linear\n", 1000+i, len(sequence))
		fmt.Fprintf(&sb, "DEFINITION  transcript %d of a cited protein.\n", i)
		fmt.Fprintf(&sb, "ACCESSION   NM_%07d\n", 1000+i)
		sb.WriteString("FEATURES             Location/Qualifiers\n")
		fmt.Fprintf(&sb, "     CDS             1..%d\n", len(sequence))
		fmt.Fprintf(&sb, "                     /db_xref=\"UniProtKB:%s\"\n", prot.Tuples[i][acc].AsString())
		sb.WriteString("ORIGIN\n")
		for off := 0; off < len(sequence); off += 60 {
			fmt.Fprintf(&sb, "%9d %s\n", off+1, sequence[off:min(off+60, len(sequence))])
		}
		sb.WriteString("//\n")
	}
	return sb.String()
}

// TestDMLDuringIngest loops UPDATEs against a registered source while a
// GenBank file streams in and is linked against it. DML waits for the
// in-flight upload, so under -race nothing is reported (before, Exec
// replaced the relation and the resolver that the upload's link
// discovery was reading), and the links equal a serial control's.
func TestDMLDuringIngest(t *testing.T) {
	ctx := context.Background()
	run := func(dml bool) ([]string, int) {
		corpus := datagen.Generate(datagen.Config{Seed: 3, Proteins: 40})
		db := openWith(t, corpus, "swissprot")
		defer db.Close()
		text := genbankText(t, corpus)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		updates := 0
		if dml {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := db.Exec(ctx, "UPDATE swissprot_protein SET organism = organism WHERE accession = 'P10000'"); err != nil {
						t.Error(err)
						return
					}
					updates++
				}
			}()
		}
		_, err := db.IngestSource(ctx, "genbank", "genbank", strings.NewReader(text), WithBatchRecords(5))
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		var links []string
		for _, l := range db.sys.Repo.AllLinks() {
			links = append(links, fmt.Sprintf("%v %s %s %.12f %s", l.Type, l.From.Key(), l.To.Key(), l.Confidence, l.Method))
		}
		sort.Strings(links)
		return links, updates
	}
	serial, _ := run(false)
	concurrent, updates := run(true)
	if updates == 0 {
		t.Fatal("no UPDATE ran")
	}
	seqLinks := 0
	for _, l := range serial {
		if strings.Contains(l, "seq:identity") {
			seqLinks++
		}
	}
	if seqLinks == 0 {
		t.Fatal("the upload found no sequence links to race against")
	}
	if strings.Join(serial, "\n") != strings.Join(concurrent, "\n") {
		t.Errorf("links with DML during the upload differ from the serial control: %d vs %d", len(concurrent), len(serial))
	}
}
