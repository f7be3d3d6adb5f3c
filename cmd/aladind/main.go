// Command aladind serves an integrated ALADIN warehouse over HTTP/JSON —
// the §4.6 access modes (SQL query, ranked search, object-web browsing)
// as a stable request/response API on top of the concurrency-safe
// aladin package. Readers are served concurrently, including while a
// POST /v1/sources integration is computing; each request runs under a
// deadline, and SIGINT/SIGTERM drain in-flight requests before exit.
//
// Usage:
//
//	aladind [-addr :8317] [-workers n] [-timeout 30s]
//	        [-proteins 40 | -empty]
//	        [-data dir] [-checkpoint-every n] [-checkpoint-interval d]
//	        [-replica-of http://primary:8317] [-ready-max-lag n]
//	        [-pprof addr]
//
// -pprof serves net/http/pprof on its own listener and mux (off by
// default; the profiling endpoints never share the public API address),
// e.g. -pprof 127.0.0.1:6060 then
// `go tool pprof http://127.0.0.1:6060/debug/pprof/heap`.
//
// With -data the warehouse is durable: every acknowledged mutation is
// journaled to a write-ahead log under the directory before the HTTP
// response is sent, a background loop (and graceful shutdown) folds the
// log into per-source checkpoint segments, and a restart — clean or
// after a crash — recovers exactly the acknowledged state. The demo
// corpus (-proteins) is only generated when the directory is empty, so
// -data also serves a warehouse saved by `aladin save`.
//
// A durable aladind is also a replication primary: it serves its
// manifest, checkpoint segments, and WAL tail under /v1/repl/. A second
// aladind started with -replica-of pointed at it becomes a read-only
// replica — it bootstraps the primary's checkpoint into its own -data
// directory, streams the WAL continuously, serves the full read API,
// and rejects every write with 403 read_only_replica. Every read
// response carries the snapshot it observed in the X-Aladin-Snapshot
// header; /readyz gates replica traffic on replication lag.
//
// Endpoints:
//
//	GET  /v1/query?q=SQL[&limit=n][&cursor=token][&explain=1]  SQL over the warehouse, paginated
//	GET  /v1/search?q=terms[&source=s][&column=c][&primary=true][&limit=n]
//	GET  /v1/stats                                       repository, web, durability, replication statistics
//	GET  /v1/sources                                     integrated sources
//	POST /v1/sources?name=n&format=f                     integrate an uploaded flat file
//	POST /v1/sources?name=n&format=f&stream=1[&batch=n]  streaming batched ingestion (NDJSON progress; no size cap)
//	GET  /v1/objects/{source}                            a source's primary objects
//	GET  /v1/objects/{source}/{accession}                one object's browse view
//	GET  /v1/objects/{source}/{accession}/related        ranked related objects
//	GET  /v1/objects/{source}/{accession}/crawl          breadth-first link crawl
//	GET  /healthz                                        liveness (always 200 while serving)
//	GET  /readyz                                         readiness (503 on a lagging/stale replica)
//	GET  /v1/repl/{manifest,segment/{name},wal}          replication API (durable primary only)
//
// Errors are structured JSON: {"error":{"status":404,"code":"unknown_source","message":"..."}}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/aladin"
	"repro/internal/datagen"
)

func main() {
	var (
		addr     = flag.String("addr", ":8317", "listen address")
		workers  = flag.Int("workers", 0, "pipeline worker pool size (0 = all CPUs, 1 = serial)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
		proteins = flag.Int("proteins", 40, "demo corpus size (proteins per source)")
		empty    = flag.Bool("empty", false, "start with no sources (integrate via POST /v1/sources)")
		dataDir  = flag.String("data", "", "durable data directory (WAL + checkpoints); empty = in-memory only")
		chkEvery = flag.Int("checkpoint-every", 16, "checkpoint after this many journaled mutations (with -data)")
		chkEach  = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period (with -data; 0 = disabled)")
		replica  = flag.String("replica-of", "", "serve as a read-only replica of the primary aladind at this base URL (requires -data)")
		readyLag = flag.Uint64("ready-max-lag", 64, "replica readiness threshold: /readyz fails above this many un-applied records")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (own mux; empty = disabled)")
	)
	flag.Parse()
	if err := run(*addr, *workers, *timeout, *proteins, *empty, *dataDir, *chkEvery, *chkEach, *replica, *readyLag, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "aladind:", err)
		os.Exit(1)
	}
}

func run(addr string, workers int, timeout time.Duration, proteins int, empty bool,
	dataDir string, chkEvery int, chkEach time.Duration, replicaOf string, readyLag uint64, pprofAddr string) error {

	db, err := openDB(workers, proteins, empty, dataDir, chkEvery, replicaOf)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		psrv := &http.Server{
			Addr:              pprofAddr,
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		defer psrv.Close()
		go func() {
			log.Printf("aladind: pprof on %s", pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("aladind: pprof: %v", err)
			}
		}()
	}
	hs := newServer(db, timeout)
	hs.readyMaxLag = readyLag
	srv := &http.Server{
		Addr:              addr,
		Handler:           hs.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if dataDir != "" && chkEach > 0 {
		go checkpointLoop(ctx, db, chkEach)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("aladind: serving on %s", addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("aladind: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if dataDir != "" {
		// Fold the WAL tail into segments so the next start replays
		// nothing; the WAL itself is already durable, so a failure here
		// costs recovery time, not data.
		if err := db.Checkpoint(shutdownCtx); err != nil {
			log.Printf("aladind: shutdown checkpoint: %v", err)
		}
	}
	return db.Close()
}

// pprofHandler builds a dedicated profiling mux. The import of
// net/http/pprof registers on http.DefaultServeMux as a side effect,
// but aladind never serves that mux — the explicit registrations here
// keep the profiling surface on its own opt-in listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// checkpointLoop periodically folds the write-ahead log into checkpoint
// segments, off the request path. Mutations between ticks are already
// durable (journaled before acknowledged); the loop only bounds replay
// time after a crash. Checkpoints with nothing to do are cheap: clean
// sources' segments are never rewritten.
func checkpointLoop(ctx context.Context, db *aladin.DB, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := db.Checkpoint(ctx); err != nil && !errors.Is(err, aladin.ErrClosed) && ctx.Err() == nil {
				log.Printf("aladind: checkpoint: %v", err)
			}
		}
	}
}

// openDB builds the served database: a recovered data directory, an
// empty warehouse, or the integrated synthetic demo corpus.
func openDB(workers, proteins int, empty bool, dataDir string, chkEvery int, replicaOf string) (*aladin.DB, error) {
	opts := []aladin.Option{
		aladin.WithWorkers(workers),
		aladin.WithOntologySources("go"),
		// Serving is read-heavy and repetitive (dashboards, paginated
		// cursors re-issuing the same SQL); cache prepared plans.
		aladin.WithPlanCache(128),
	}
	if dataDir != "" {
		opts = append(opts, aladin.WithDataDir(dataDir))
		if chkEvery > 0 {
			opts = append(opts, aladin.WithCheckpointEvery(chkEvery))
		}
	}
	if replicaOf != "" {
		// A replica's entire state comes from the primary's stream; it
		// never seeds or integrates anything locally.
		if dataDir == "" {
			return nil, errors.New("-replica-of requires -data")
		}
		if empty {
			return nil, errors.New("-replica-of is mutually exclusive with -empty")
		}
		db, err := aladin.Open(append(opts, aladin.WithReplicaOf(replicaOf))...)
		if err != nil {
			return nil, err
		}
		st, _ := db.Stats(context.Background())
		log.Printf("aladind: replica of %s: bootstrapped via %s in %v (applied seq %d)",
			replicaOf, st.Replication.BootstrapMode, st.Replication.BootstrapDuration.Round(time.Millisecond), st.Replication.AppliedSeq)
		return db, nil
	}
	db, err := aladin.Open(opts...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if empty {
		return db, nil
	}
	if dataDir != "" {
		// A recovered directory already holds its sources; the demo
		// corpus only seeds a brand-new one.
		infos, err := db.Sources(ctx)
		if err != nil {
			return nil, err
		}
		if len(infos) > 0 {
			st, _ := db.Stats(ctx)
			ds := st.Durability
			log.Printf("aladind: recovered %d sources from %s (segment decode %v, source restore %v, WAL-tail replay %v)", len(infos), dataDir,
				ds.RecoverDecode.Round(time.Microsecond), ds.RecoverRestore.Round(time.Microsecond), ds.RecoverReplay.Round(time.Microsecond))
			return db, nil
		}
	}
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: proteins})
	for _, src := range corpus.Sources {
		t0 := time.Now()
		if _, err := db.AddSource(ctx, src); err != nil {
			return nil, fmt.Errorf("integrating demo source %s: %w", src.Name, err)
		}
		log.Printf("aladind: integrated %s in %v", src.Name, time.Since(t0).Round(time.Millisecond))
	}
	return db, nil
}
