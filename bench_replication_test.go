// Replication benchmarks (PR 8): replica bootstrap time as a function
// of corpus size, steady-state streaming lag drain, and read throughput
// of a primary alone versus primary + read replicas — the point of the
// subsystem is that reads/sec scales with replicas while writes stay on
// one primary.
//
// Run with:
//
//	go test -bench Replication -benchtime 1x .
//
// On a single-CPU container the multi-replica read rows measure HTTP +
// scheduler coordination overhead, not true parallel speedup. The
// tracked, end-to-end numbers come from bench/ (bash bench/run.sh).
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/aladin"
	"repro/internal/datagen"
)

// replPrimary builds a durable primary over the synthetic corpus and
// serves its replication API.
func replPrimary(tb testing.TB, proteins int) (*aladin.DB, *httptest.Server) {
	tb.Helper()
	db, err := aladin.Open(aladin.WithOntologySources("go"), aladin.WithDataDir(tb.TempDir()))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	corpus := datagen.Generate(datagen.Config{Seed: 7, Proteins: proteins})
	for _, src := range corpus.Sources {
		if _, err := db.AddSource(context.Background(), src); err != nil {
			tb.Fatal(err)
		}
	}
	ts := httptest.NewServer(db.ReplHandler())
	tb.Cleanup(ts.Close)
	return db, ts
}

func openReplica(tb testing.TB, primaryURL string) *aladin.DB {
	tb.Helper()
	r, err := aladin.Open(aladin.WithOntologySources("go"),
		aladin.WithDataDir(tb.TempDir()), aladin.WithReplicaOf(primaryURL))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkReplicationBootstrap measures cold bootstrap + catch-up:
// aladin.Open with WithReplicaOf against an idle primary, by corpus
// size.
func BenchmarkReplicationBootstrap(b *testing.B) {
	for _, proteins := range []int{8, 24, 48} {
		b.Run(fmt.Sprintf("proteins=%d", proteins), func(b *testing.B) {
			_, ts := replPrimary(b, proteins)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := openReplica(b, ts.URL)
				b.StopTimer()
				if st, _ := r.Stats(context.Background()); st.Repo.Sources == 0 {
					b.Fatal("replica bootstrapped empty")
				}
				r.Close()
				b.StartTimer()
			}
		})
	}
}

// replCatchup measures steady-state streaming: n journaled DML
// mutations on the primary, timed until the replica has applied the
// last of them.
func replCatchup(tb testing.TB, primary, replica *aladin.DB, n int) time.Duration {
	tb.Helper()
	ctx := context.Background()
	res, err := primary.Query(ctx, fmt.Sprintf("SELECT accession FROM swissprot_protein ORDER BY accession LIMIT %d", n))
	if err != nil || len(res.Rows) < n {
		tb.Fatalf("accession fetch: err=%v rows=%d want %d", err, len(res.Rows), n)
	}
	t0 := time.Now()
	for _, row := range res.Rows {
		if _, err := primary.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", row[0].AsString())); err != nil {
			tb.Fatal(err)
		}
	}
	want, _ := primary.SnapshotID(ctx)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := replica.SnapshotID(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		if got.Seq >= want.Seq {
			return time.Since(t0)
		}
		if time.Now().After(deadline) {
			st, _ := replica.Stats(ctx)
			tb.Fatalf("replica stuck at %v, want %v (%+v)", got, want, st.Replication)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func BenchmarkReplicationCatchup(b *testing.B) {
	primary, ts := replPrimary(b, 48)
	replica := openReplica(b, ts.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replCatchup(b, primary, replica, 8)
	}
}

// replReadThroughput drives concurrent point queries round-robin over
// the target servers for the window and returns completed reads/sec.
func replReadThroughput(tb testing.TB, targets []*httptest.Server, window time.Duration, workers int) float64 {
	tb.Helper()
	path := "/v1/query?q=" + url.QueryEscape("SELECT COUNT(*) FROM swissprot_protein") + "&limit=1"
	var done, failed, next atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for time.Now().Before(deadline) {
				ts := targets[int(next.Add(1))%len(targets)]
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() > 0 {
		tb.Fatalf("%d of %d load requests failed", failed.Load(), failed.Load()+done.Load())
	}
	return float64(done.Load()) / window.Seconds()
}

// replCluster serves the full read API of a primary plus `replicas`
// caught-up read replicas; returns the query servers in cluster order.
func replCluster(tb testing.TB, proteins, replicas int) (*aladin.DB, []*httptest.Server) {
	tb.Helper()
	primary, replTS := replPrimary(tb, proteins)
	// The primary's read API rides the replication mux's sibling server.
	mux := func(db *aladin.DB) *httptest.Server {
		h := http.NewServeMux()
		h.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query().Get("q")
			res, err := db.Query(r.Context(), q)
			if err != nil {
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintln(w, err)
				return
			}
			json.NewEncoder(w).Encode(map[string]any{"count": len(res.Rows)})
		})
		ts := httptest.NewServer(h)
		tb.Cleanup(ts.Close)
		return ts
	}
	servers := []*httptest.Server{mux(primary)}
	for i := 0; i < replicas; i++ {
		servers = append(servers, mux(openReplica(tb, replTS.URL)))
	}
	return primary, servers
}

func BenchmarkReplicationReadFanout(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			_, servers := replCluster(b, 24, replicas)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rps := replReadThroughput(b, servers, 250*time.Millisecond, 4)
				b.ReportMetric(rps, "reads/s")
			}
		})
	}
}
