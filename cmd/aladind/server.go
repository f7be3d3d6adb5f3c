package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/aladin"
	"repro/internal/flatfile"
)

// maxUploadBytes caps POST /v1/sources bodies.
const maxUploadBytes = 64 << 20

// Query paging bounds: every /v1/query response carries at most
// maxQueryLimit rows (defaultQueryLimit without an explicit limit), so a
// broad query can no longer materialize an unbounded JSON body; callers
// page through the rest with the cursor parameter.
const (
	defaultQueryLimit = 100
	maxQueryLimit     = 1000
)

// server routes HTTP requests onto one aladin.DB.
type server struct {
	db *aladin.DB
	// timeout bounds each request's context (0 = none).
	timeout time.Duration
	// readyMaxLag is how many un-applied records behind the primary a
	// replica may be and still report ready (see handleReadyz).
	readyMaxLag uint64
	logf        func(format string, args ...any)
}

func newServer(db *aladin.DB, timeout time.Duration) *server {
	return &server{db: db, timeout: timeout, readyMaxLag: 64, logf: log.Printf}
}

// handler builds the route table and wraps it with the recovery and
// per-request-timeout middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/search", s.handleSearch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/sources", s.handleSources)
	mux.HandleFunc("POST /v1/sources", s.handleAddSource)
	mux.HandleFunc("GET /v1/objects/{source}", s.handleObjects)
	mux.HandleFunc("GET /v1/objects/{source}/{accession}", s.handleObject)
	mux.HandleFunc("GET /v1/objects/{source}/{accession}/related", s.handleRelated)
	mux.HandleFunc("GET /v1/objects/{source}/{accession}/crawl", s.handleCrawl)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// A durable primary additionally serves the replication API the
	// -replica-of peers stream from (absent on replicas and in-memory
	// servers; ReplHandler returns nil there).
	if h := s.db.ReplHandler(); h != nil {
		mux.Handle("GET /v1/repl/", h)
	}
	return s.middleware(mux)
}

// middleware applies the per-request timeout, stamps read responses
// with the snapshot they observe, and converts panics into structured
// 500 responses instead of killing the connection. A streamed upload is
// exempt from the timeout for the reason it is exempt from the body-size
// cap: it is bounded per batch, not per request, and may legitimately
// run for as long as the client keeps sending.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.timeout > 0 && !isStreamUpload(r) {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		// Every read carries the snapshot ID (checkpoint generation +
		// last applied mutation sequence) it was served from, as an
		// ETag-style header clients can compare across requests and
		// across replicas. handleQuery overrides it with the exact ID its
		// row cursor is bound to (a mutation may land between here and
		// the cursor opening).
		if (r.Method == http.MethodGet || r.Method == http.MethodHead) && strings.HasPrefix(r.URL.Path, "/v1/") {
			if sid, err := s.db.SnapshotID(r.Context()); err == nil {
				setSnapshotHeader(w, sid)
			}
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("aladind: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				writeError(w, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// isStreamUpload reports whether r is POST /v1/sources?...&stream=1. An
// unparsable stream value is not one; the handler answers it with a 400.
func isStreamUpload(r *http.Request) bool {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/sources" {
		return false
	}
	stream, err := boolParam("stream", r.URL.Query().Get("stream"))
	return err == nil && stream
}

func setSnapshotHeader(w http.ResponseWriter, sid aladin.SnapshotID) {
	w.Header().Set("X-Aladin-Snapshot", sid.String())
	w.Header().Set("ETag", `W/"`+sid.String()+`"`)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// handleReadyz is readiness: whether this instance should receive
// traffic. A primary (or in-memory server) is ready once it serves
// requests at all; a replica is ready only when its bootstrap is
// complete, the stream is healthy, and its lag is at most readyMaxLag —
// a stale or erroring replica keeps serving /v1 reads but tells the
// load balancer to route elsewhere.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st, err := s.db.Stats(r.Context())
	if err != nil {
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "error": err.Error()})
		return
	}
	rep := st.Replication
	out := map[string]any{"ready": true, "role": rep.Role}
	if rep.Role == "replica" {
		out["state"] = rep.State
		out["lag"] = rep.Lag
		if rep.State != aladin.ReplStateStreaming || rep.Lag > s.readyMaxLag {
			out["ready"] = false
			writeJSONStatus(w, http.StatusServiceUnavailable, out)
			return
		}
	}
	writeJSON(w, out)
}

// errorObject is the structured error of every non-2xx response, under
// the body's "error" key. A query page or streamed upload that fails
// after its 200 status line went out carries the same object last.
type errorObject struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorOf builds the error object for err from its typed sentinel.
func errorOf(err error) errorObject {
	status, code := errorStatusCode(err)
	return errorObject{Status: status, Code: code, Message: err.Error()}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSONStatus(w, status, map[string]errorObject{"error": {Status: status, Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errorStatusCode maps the aladin package's typed errors onto an HTTP
// status and a stable error code.
func errorStatusCode(err error) (int, string) {
	switch {
	case errors.Is(err, aladin.ErrBadQuery):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, aladin.ErrUnknownSource):
		return http.StatusNotFound, "unknown_source"
	case errors.Is(err, aladin.ErrUnknownObject):
		return http.StatusNotFound, "unknown_object"
	case errors.Is(err, aladin.ErrSourceExists):
		return http.StatusConflict, "source_exists"
	case errors.Is(err, aladin.ErrNoPrimary):
		return http.StatusUnprocessableEntity, "no_primary_relation"
	case errors.Is(err, aladin.ErrBadFormat):
		return http.StatusBadRequest, "bad_format"
	case errors.Is(err, aladin.ErrReadOnlyReplica):
		// The structured message names the primary to write to instead.
		return http.StatusForbidden, "read_only_replica"
	case errors.Is(err, aladin.ErrCanceled):
		// DeadlineExceeded = the per-request timeout fired; plain Canceled
		// = the client went away.
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout, "timeout"
		}
		return http.StatusBadRequest, "canceled"
	case errors.Is(err, aladin.ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// fail writes the structured error response for err.
func (s *server) fail(w http.ResponseWriter, err error) {
	e := errorOf(err)
	writeError(w, e.Status, e.Code, e.Message)
}

// --- wire DTOs -------------------------------------------------------

type refJSON struct {
	Source    string `json:"source"`
	Relation  string `json:"relation"`
	Accession string `json:"accession"`
}

func toRefJSON(r aladin.ObjectRef) refJSON {
	return refJSON{Source: r.Source, Relation: r.Relation, Accession: r.Accession}
}

type linkJSON struct {
	Type       string  `json:"type"`
	From       refJSON `json:"from"`
	To         refJSON `json:"to"`
	Confidence float64 `json:"confidence"`
	Method     string  `json:"method"`
}

func toLinkJSON(l aladin.Link) linkJSON {
	return linkJSON{
		Type: l.Type.String(), From: toRefJSON(l.From), To: toRefJSON(l.To),
		Confidence: l.Confidence, Method: l.Method,
	}
}

// --- handlers --------------------------------------------------------

// handleQuery serves one page of a SQL result:
//
//	GET /v1/query?q=SQL[&limit=n][&cursor=token][&explain=1]
//
// Rows stream straight from the warehouse cursor into the JSON encoder —
// at most `limit` of them (default defaultQueryLimit, capped at
// maxQueryLimit), so the response body is bounded no matter how broad
// the query is. When more rows remain, the envelope carries an opaque
// next_cursor; passing it back (with the same q) returns the next page.
// Cursors are pinned to the snapshot ID of the page that created them
// (also exposed in the X-Aladin-Snapshot header): if the warehouse
// mutates between two page fetches, the next fetch fails with 410
// stale_cursor instead of silently shifting rows, and the client
// restarts its pagination. With explain=1 the envelope also carries the access plan
// (operator tree with chosen index/scan paths) under "plan";
// explain=analyze executes the query and the plan gains actual rows and
// operator times. Unknown query parameters are rejected with a
// structured 400 — a typo like limt=10 must not silently fall back to
// the defaults.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	for name := range params {
		switch name {
		case "q", "limit", "cursor", "explain":
		default:
			writeError(w, http.StatusBadRequest, "unknown_parameter",
				fmt.Sprintf("unknown query parameter %q (expected q, limit, cursor, explain)", name))
			return
		}
	}
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "missing query parameter q")
		return
	}
	limit, err := intParam("limit", params.Get("limit"), defaultQueryLimit, 1, maxQueryLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	explain, err := explainParam(params.Get("explain"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	// QueryRowsExplain binds plan and cursor to one warehouse snapshot,
	// so the plan in the envelope describes exactly the rows beside it
	// even when an AddSource commit lands mid-request. explain=analyze
	// instead executes the query once up front to meter actual rows and
	// operator times, then streams the page from a second execution.
	var rows *aladin.Rows
	planText := ""
	switch explain {
	case explainAnalyze:
		planText, err = s.db.ExplainAnalyze(r.Context(), q)
		if err == nil {
			rows, err = s.db.QueryRows(r.Context(), q)
		}
	case explainPlan:
		rows, planText, err = s.db.QueryRowsExplain(r.Context(), q)
	default:
		rows, err = s.db.QueryRows(r.Context(), q)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	defer rows.Close()

	// The response is pinned to the snapshot these rows iterate; cursors
	// bind to it, so a page sequence either completes against one
	// consistent state or fails fast with 410 when a mutation (here or,
	// via replication, anywhere in the cluster) moved the warehouse on.
	sid := rows.SnapshotID()
	setSnapshotHeader(w, sid)
	offset := 0
	if token := params.Get("cursor"); token != "" {
		offset, err = decodeCursor(q, token, sid)
		if errors.Is(err, errStaleCursor) {
			writeError(w, http.StatusGone, "stale_cursor", err.Error())
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_cursor", err.Error())
			return
		}
	}

	// Advance to the cursor position before the status line is written,
	// so errors in the skipped range still map to proper statuses.
	skipped := 0
	for skipped < offset && rows.Next() {
		skipped++
	}
	if err := rows.Err(); err != nil {
		s.fail(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	cols, _ := json.Marshal(rows.Columns())
	fmt.Fprintf(w, `{"columns":%s,"limit":%d`, cols, limit)
	if explain != explainNone {
		plan, _ := json.Marshal(planText)
		fmt.Fprintf(w, `,"plan":%s`, plan)
	}
	fmt.Fprint(w, `,"rows":[`)
	var buf []byte // one row's JSON, reused
	count := 0
	for count < limit && rows.Next() {
		buf = buf[:0]
		if count > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONStrings(buf, rows.RowStrings())
		w.Write(buf)
		count++
	}
	// One extra pull decides whether a next page exists.
	more := count == limit && rows.Next()
	fmt.Fprintf(w, `],"count":%d`, count)
	if more {
		fmt.Fprintf(w, `,"next_cursor":%q`, encodeCursor(q, offset+count, sid))
	}
	if err := rows.Err(); err != nil {
		// The status line is long gone; surface a mid-stream execution
		// error in the envelope instead of silently truncating.
		s.logf("aladind: query %q failed mid-stream: %v", q, err)
		msg, _ := json.Marshal(errorOf(err))
		fmt.Fprintf(w, `,"error":%s`, msg)
	}
	fmt.Fprint(w, "}\n")
}

// jsonSafe marks the bytes json.Marshal copies into a string as they
// are: printable ASCII but '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// appendJSONStrings appends ss as a JSON array of strings, byte for byte
// as json.Marshal encodes a []string: '"' and '\\' escaped, \b, \f, \n,
// \r and \t as such, any other control byte, '<', '>', '&', U+2028 and
// U+2029 as \uXXXX, and each byte of invalid UTF-8 as \ufffd.
func appendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for k, s := range ss {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		start := 0
		for i := 0; i < len(s); {
			if jsonSafe[s[i]] {
				i++
				continue
			}
			c, n := utf8.DecodeRuneInString(s[i:])
			if n > 1 && c != '\u2028' && c != '\u2029' {
				i += n
				continue
			}
			dst = append(dst, s[start:i]...)
			switch j := strings.IndexByte("\"\\\b\f\n\r\t", s[i]); {
			case c == utf8.RuneError:
				dst = append(dst, `\ufffd`...)
			case j >= 0:
				dst = append(dst, '\\', `"\bfnrt`[j])
			default:
				dst = fmt.Appendf(dst, `\u%04x`, c)
			}
			i += n
			start = i
		}
		dst = append(append(dst, s[start:]...), '"')
	}
	return append(dst, ']')
}

// queryCursor is the decoded form of the opaque pagination token: the
// row offset of the next page, bound to a hash of the query text (so a
// cursor cannot be replayed against a different statement) and to the
// snapshot ID the first page was served from (so offset-based paging
// never silently straddles a mutation — on any replica of the same
// primary, equal snapshot IDs mean identical row numbering).
type queryCursor struct {
	Hash     string `json:"q"`
	Offset   int    `json:"o"`
	Snapshot string `json:"s"`
}

func queryHash(q string) string {
	h := fnv.New64a()
	io.WriteString(h, q)
	return strconv.FormatUint(h.Sum64(), 16)
}

func encodeCursor(q string, offset int, sid aladin.SnapshotID) string {
	b, _ := json.Marshal(queryCursor{Hash: queryHash(q), Offset: offset, Snapshot: sid.String()})
	return base64.RawURLEncoding.EncodeToString(b)
}

// errStaleCursor distinguishes a cursor from a different snapshot (410,
// the client restarts its pagination) from a malformed one (400).
var errStaleCursor = errors.New("cursor was created against a different warehouse snapshot; restart the pagination")

func decodeCursor(q, token string, sid aladin.SnapshotID) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, errors.New("malformed cursor")
	}
	var c queryCursor
	if err := json.Unmarshal(raw, &c); err != nil {
		return 0, errors.New("malformed cursor")
	}
	if c.Hash != queryHash(q) {
		return 0, errors.New("cursor does not match query parameter q")
	}
	if c.Offset < 0 {
		return 0, errors.New("malformed cursor")
	}
	if c.Snapshot != sid.String() {
		return 0, fmt.Errorf("%w (cursor %s, current %s)", errStaleCursor, c.Snapshot, sid)
	}
	return c.Offset, nil
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "missing query parameter q")
		return
	}
	f := aladin.SearchFilter{
		Sources:     params["source"],
		Columns:     params["column"],
		PrimaryOnly: params.Get("primary") == "true",
	}
	limit, err := intParam("limit", params.Get("limit"), 10, 1, maxQueryLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	results, err := s.db.Search(r.Context(), q, f, limit)
	if err != nil {
		s.fail(w, err)
		return
	}
	type hit struct {
		Object   refJSON `json:"object"`
		Relation string  `json:"relation"`
		Column   string  `json:"column"`
		Score    float64 `json:"score"`
		Snippet  string  `json:"snippet"`
	}
	hits := make([]hit, 0, len(results))
	for _, res := range results {
		hits = append(hits, hit{
			Object:   toRefJSON(res.Document.Object),
			Relation: res.Document.Relation,
			Column:   res.Document.Column,
			Score:    res.Score,
			Snippet:  aladin.Snippet(res, q, 80),
		})
	}
	writeJSON(w, map[string]any{"query": q, "results": hits, "count": len(hits)})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.db.Stats(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	out := map[string]any{
		"sources":       st.Repo.Sources,
		"links":         st.Repo.Links,
		"links_by_type": st.Repo.LinksByType,
		"removed_links": st.Repo.RemovedLinks,
		"snapshot": map[string]any{
			"checkpoint_gen": st.Snapshot.Gen,
			"applied_seq":    st.Snapshot.Seq,
			"id":             st.Snapshot.String(),
		},
		"web": map[string]any{
			"objects":           st.Web.Objects,
			"linked_objects":    st.Web.LinkedObjects,
			"components":        st.Web.Components,
			"largest_component": st.Web.LargestComponent,
			"mean_degree":       st.Web.MeanDegree,
		},
		"indexed_documents": st.IndexedDocuments,
	}
	if st.Durability.Enabled {
		dur := map[string]any{
			"dir":             st.Durability.Dir,
			"checkpoints":     st.Durability.Gen,
			"wal_records":     st.Durability.WALRecords,
			"wal_bytes":       st.Durability.WALBytes,
			"dirty_sources":   st.Durability.DirtySources,
			"checkpointed":    st.Durability.Sources,
			"last_checkpoint": st.Durability.LastCheckpoint,
		}
		if !st.Durability.LastCheckpoint.IsZero() {
			dur["last_checkpoint_age_seconds"] = time.Since(st.Durability.LastCheckpoint).Seconds()
		}
		if st.Durability.LastCheckpointError != "" {
			dur["last_checkpoint_error"] = st.Durability.LastCheckpointError
		}
		out["durability"] = dur
	}
	rep := map[string]any{"role": st.Replication.Role}
	if st.Replication.Role == "replica" {
		rep["primary"] = st.Replication.Primary
		rep["state"] = st.Replication.State
		rep["applied_seq"] = st.Replication.AppliedSeq
		rep["primary_seq"] = st.Replication.PrimarySeq
		rep["lag"] = st.Replication.Lag
		rep["last_sync"] = st.Replication.LastSync
		rep["bootstrap_mode"] = st.Replication.BootstrapMode
		rep["bootstrap_seconds"] = st.Replication.BootstrapDuration.Seconds()
		if st.Replication.LastError != "" {
			rep["last_error"] = st.Replication.LastError
		}
	}
	out["replication"] = rep
	out["ingest"] = map[string]any{
		"runs":    st.Ingest.Runs,
		"batches": st.Ingest.Batches,
		"records": st.Ingest.Records,
		"tuples":  st.Ingest.Tuples,
		"bytes":   st.Ingest.Bytes,
		"links":   st.Ingest.Links,
		"timings": map[string]string{
			"parse":  st.Ingest.Parse.String(),
			"batch":  st.Ingest.Batch.String(),
			"link":   st.Ingest.Link.String(),
			"dup":    st.Ingest.Dup.String(),
			"index":  st.Ingest.Index.String(),
			"commit": st.Ingest.Commit.String(),
		},
	}
	writeJSON(w, out)
}

func (s *server) handleSources(w http.ResponseWriter, r *http.Request) {
	infos, err := s.db.Sources(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	type src struct {
		Name      string `json:"name"`
		Primary   string `json:"primary"`
		Accession string `json:"accession"`
		Tuples    int    `json:"tuples"`
	}
	out := make([]src, 0, len(infos))
	for _, m := range infos {
		out = append(out, src{Name: m.Name, Primary: m.Primary, Accession: m.Accession, Tuples: m.Tuples})
	}
	writeJSON(w, map[string]any{"sources": out, "count": len(out)})
}

// handleAddSource integrates an uploaded flat file:
//
//	POST /v1/sources?name=<source>&format=<embl|genbank|fasta|obo|csv|tsv|xml>
//	POST /v1/sources?name=<source>&format=<embl|genbank|fasta|csv|tsv>&stream=1[&batch=n]
//
// with the raw file as the request body. Without stream, the body is
// parsed whole (capped at maxUploadBytes — larger uploads get a
// structured 413) and integrated in one AddSource call. With stream=1
// the body is ingested in batches as it arrives: the size cap does not
// apply (memory is bounded by the batch size, not the body size), and
// the response is NDJSON — one progress object per committed batch,
// flushed as it commits, then a final {"done":true,...} summary line.
// A failure mid-stream is reported as a final {"error":{...}} line; the
// batches committed before it remain committed. Integration can take a
// while on big sources: the per-request timeout applies to whole-file
// uploads and cancels them cleanly, while a streamed upload runs for as
// long as the client keeps sending and stops at the next batch boundary
// when the client disconnects or the database closes.
func (s *server) handleAddSource(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	name, format := params.Get("name"), params.Get("format")
	if name == "" || format == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "missing query parameter name or format")
		return
	}
	stream, err := boolParam("stream", params.Get("stream"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	if stream {
		batch, err := intParam("batch", params.Get("batch"), 0, 1, 1<<20)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
			return
		}
		s.streamAddSource(w, r, name, format, batch)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	db, err := flatfile.Parse(format, body, name)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds the %d-byte upload limit; use stream=1 to ingest large files in batches", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	rep, err := s.db.AddSource(r.Context(), db)
	if err != nil {
		s.fail(w, err)
		return
	}
	timings := make(map[string]string, len(rep.Timings))
	for _, t := range rep.Timings {
		timings[t.Step] = t.Duration.String()
	}
	writeJSONStatus(w, http.StatusCreated, map[string]any{
		"source":      rep.Source,
		"primary":     rep.Structure.Primary,
		"accession":   rep.Structure.PrimaryAccession,
		"links_added": rep.LinksAdded,
		"timings":     timings,
		"duration":    rep.Duration().String(),
	})
}

// streamAddSource is the stream=1 arm of handleAddSource: batched
// ingestion straight off the request body, with one NDJSON progress
// line per committed batch.
func (s *server) streamAddSource(w http.ResponseWriter, r *http.Request, name, format string, batch int) {
	if !flatfile.Streamable(format) {
		writeError(w, http.StatusBadRequest, "bad_format",
			fmt.Sprintf("format %q has no streaming scanner (streamable: %s); retry without stream=1",
				format, strings.Join(flatfile.StreamFormats(), ", ")))
		return
	}
	// The handler keeps reading the request body after progress lines
	// start going out. Without full duplex, the HTTP/1.x server finishes
	// off the body at the first response write, and the reads that follow
	// fail with "invalid Read on closed Body" whenever the upload is too
	// large to have been buffered already.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		s.logf("aladind: full-duplex unavailable, streaming ingest of %s may truncate: %v", name, err)
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	opts := []aladin.IngestOption{aladin.WithIngestProgress(func(p aladin.IngestProgress) {
		_ = enc.Encode(map[string]any{
			"batch": p.Batch, "records": p.Records, "tuples": p.Tuples,
			"bytes": p.Bytes, "seq": p.Seq,
		})
		if flusher != nil {
			flusher.Flush()
		}
	})}
	if batch > 0 {
		opts = append(opts, aladin.WithBatchRecords(batch))
	}
	start := time.Now()
	rep, err := s.db.IngestSource(r.Context(), name, format, r.Body, opts...)
	if err != nil {
		// The 200 status line is long gone; surface the failure as a
		// final NDJSON line carrying the error object. Committed batches
		// stay committed — the line carries how far we got.
		s.logf("aladind: streaming ingest of %s failed: %v", name, err)
		out := map[string]any{"error": errorOf(err)}
		if rep != nil {
			out["records"], out["batches"] = rep.Records, rep.Batches
		}
		_ = enc.Encode(out)
		return
	}
	_ = enc.Encode(map[string]any{
		"done": true, "source": rep.Source, "records": rep.Records,
		"tuples": rep.Tuples, "batches": rep.Batches, "bytes": rep.Bytes,
		"links": rep.Links, "seq": rep.LastSeq,
		"duration": time.Since(start).String(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *server) handleObjects(w http.ResponseWriter, r *http.Request) {
	refs, err := s.db.Objects(r.Context(), r.PathValue("source"))
	if err != nil {
		s.fail(w, err)
		return
	}
	out := make([]refJSON, 0, len(refs))
	for _, ref := range refs {
		out = append(out, toRefJSON(ref))
	}
	writeJSON(w, map[string]any{"objects": out, "count": len(out)})
}

// objectRef resolves the {source}/{accession} path elements against the
// source's discovered primary relation.
func (s *server) objectRef(r *http.Request) (aladin.ObjectRef, error) {
	name := r.PathValue("source")
	info, err := s.db.Source(r.Context(), name)
	if err != nil {
		return aladin.ObjectRef{}, err
	}
	return aladin.ObjectRef{
		Source:    info.Name,
		Relation:  info.Primary,
		Accession: r.PathValue("accession"),
	}, nil
}

func (s *server) handleObject(w http.ResponseWriter, r *http.Request) {
	ref, err := s.objectRef(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.db.Browse(r.Context(), ref)
	if err != nil {
		s.fail(w, err)
		return
	}
	type annotation struct {
		Relation string            `json:"relation"`
		Fields   map[string]string `json:"fields"`
	}
	annotations := make([]annotation, 0, len(v.Annotations))
	for _, a := range v.Annotations {
		annotations = append(annotations, annotation{Relation: a.Relation, Fields: a.Fields})
	}
	duplicates := make([]linkJSON, 0, len(v.Duplicates))
	for _, l := range v.Duplicates {
		duplicates = append(duplicates, toLinkJSON(l))
	}
	linked := make([]linkJSON, 0, len(v.Linked))
	for _, l := range v.Linked {
		linked = append(linked, toLinkJSON(l))
	}
	writeJSON(w, map[string]any{
		"object":      toRefJSON(v.Ref),
		"fields":      v.Fields,
		"annotations": annotations,
		"prev":        v.PrevAccession,
		"next":        v.NextAccession,
		"duplicates":  duplicates,
		"linked":      linked,
	})
}

func (s *server) handleRelated(w http.ResponseWriter, r *http.Request) {
	ref, err := s.objectRef(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	params := r.URL.Query()
	maxLen, err := intParam("maxlen", params.Get("maxlen"), 3, 1, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	limit, err := intParam("limit", params.Get("limit"), 10, 1, maxQueryLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	scored, err := s.db.Related(r.Context(), ref, maxLen, limit)
	if err != nil {
		s.fail(w, err)
		return
	}
	type related struct {
		Object refJSON `json:"object"`
		Score  float64 `json:"score"`
		Paths  int     `json:"paths"`
	}
	out := make([]related, 0, len(scored))
	for _, sc := range scored {
		out = append(out, related{Object: toRefJSON(sc.Ref), Score: sc.Score, Paths: sc.Paths})
	}
	writeJSON(w, map[string]any{"object": toRefJSON(ref), "related": out, "count": len(out)})
}

func (s *server) handleCrawl(w http.ResponseWriter, r *http.Request) {
	ref, err := s.objectRef(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	depth, err := intParam("depth", r.URL.Query().Get("depth"), 2, 0, 50)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_parameter", err.Error())
		return
	}
	refs, err := s.db.Crawl(r.Context(), ref, depth)
	if err != nil {
		s.fail(w, err)
		return
	}
	out := make([]refJSON, 0, len(refs))
	for _, c := range refs {
		out = append(out, toRefJSON(c))
	}
	writeJSON(w, map[string]any{"start": toRefJSON(ref), "objects": out, "count": len(out)})
}

// explainMode selects how much plan detail the query envelope carries.
type explainMode int

const (
	explainNone explainMode = iota
	explainPlan
	explainAnalyze
)

// explainParam parses the explain query parameter: boolean values toggle
// the plain access plan, "analyze" additionally executes the query and
// annotates the plan with actual rows and operator times.
func explainParam(s string) (explainMode, error) {
	if strings.TrimSpace(s) == "analyze" {
		return explainAnalyze, nil
	}
	b, err := boolParam("explain", s)
	if err != nil {
		return explainNone, fmt.Errorf("parameter explain: %q (expected 0, 1, true, false, or analyze)", s)
	}
	if b {
		return explainPlan, nil
	}
	return explainNone, nil
}

// boolParam parses a flag-style query parameter; empty means false.
func boolParam(name, s string) (bool, error) {
	switch strings.TrimSpace(s) {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("parameter %s: not a boolean: %q", name, s)
}

// intParam parses an integer query parameter with a default, clamping
// the value into [min, max]. A non-numeric value is an error — callers
// return 400 with a structured body — instead of silently falling back
// to the default; negative and out-of-range values are clamped.
func intParam(name, s string, def, min, max int) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: not an integer: %q", name, s)
	}
	if n < min {
		return min, nil
	}
	if n > max {
		return max, nil
	}
	return n, nil
}
