package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/aladin"
	"repro/internal/datagen"
)

// newTestServer serves the demo corpus (2 sources, small) over httptest.
func newTestServer(t *testing.T) (*httptest.Server, *aladin.DB) {
	t.Helper()
	db, err := aladin.Open(aladin.WithOntologySources("go"))
	if err != nil {
		t.Fatal(err)
	}
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 10})
	ctx := context.Background()
	for _, name := range []string{"swissprot", "pdb"} {
		if _, err := db.AddSource(ctx, corpus.Source(name)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(newServer(db, 30*time.Second).handler())
	t.Cleanup(ts.Close)
	return ts, db
}

// getJSON fetches a URL, asserts the status, and decodes the body.
func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET %s content-type = %q", url, ct)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: invalid JSON: %v; body: %s", url, err, body)
	}
	return out
}

// TestHTTPSmoke is the end-to-end smoke test: query and search against
// the demo corpus must return 200 with non-empty JSON payloads.
func TestHTTPSmoke(t *testing.T) {
	ts, _ := newTestServer(t)

	q := getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT COUNT(*) FROM swissprot_protein"), 200)
	if q["count"].(float64) != 1 {
		t.Errorf("query count = %v", q["count"])
	}
	rows := q["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0].(string) != "10" {
		t.Errorf("query rows = %v", rows)
	}

	sr := getJSON(t, ts.URL+"/v1/search?q=protein+structure&limit=5", 200)
	if sr["count"].(float64) == 0 {
		t.Error("search returned no results")
	}

	st := getJSON(t, ts.URL+"/v1/stats", 200)
	if st["sources"].(float64) != 2 {
		t.Errorf("stats sources = %v", st["sources"])
	}
	if st["links"].(float64) == 0 {
		t.Error("stats links = 0")
	}

	src := getJSON(t, ts.URL+"/v1/sources", 200)
	if src["count"].(float64) != 2 {
		t.Errorf("sources count = %v", src["count"])
	}
}

func TestHTTPObjectEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)

	objs := getJSON(t, ts.URL+"/v1/objects/swissprot", 200)
	if objs["count"].(float64) != 10 {
		t.Fatalf("objects count = %v", objs["count"])
	}
	first := objs["objects"].([]any)[0].(map[string]any)
	acc := first["accession"].(string)

	obj := getJSON(t, ts.URL+"/v1/objects/swissprot/"+acc, 200)
	if len(obj["fields"].(map[string]any)) == 0 {
		t.Error("object view has no fields")
	}
	rel := getJSON(t, ts.URL+"/v1/objects/swissprot/"+acc+"/related?maxlen=2&limit=5", 200)
	if rel["object"].(map[string]any)["accession"] != acc {
		t.Errorf("related echo = %v", rel["object"])
	}
	crawl := getJSON(t, ts.URL+"/v1/objects/swissprot/"+acc+"/crawl?depth=1", 200)
	if crawl["count"].(float64) == 0 {
		t.Error("crawl returned nothing")
	}
}

// TestHTTPErrors asserts the structured error body and status mapping.
func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		url        string
		wantStatus int
		wantCode   string
	}{
		{"/v1/query", 400, "missing_parameter"},
		{"/v1/query?q=" + escape("SELEKT nope"), 400, "bad_query"},
		// Names resolve at Prepare, so a bad one is a 400 before the
		// status line, also where no row would ever evaluate it.
		{"/v1/query?q=" + escape("SELECT nosuch FROM swissprot_protein"), 400, "bad_query"},
		{"/v1/query?q=" + escape("SELECT accession FROM swissprot_protein WHERE accession = 'NOPE' AND nosuch = 1"), 400, "bad_query"},
		{"/v1/search", 400, "missing_parameter"},
		{"/v1/objects/nope", 404, "unknown_source"},
		{"/v1/objects/swissprot/NOPE999", 404, "unknown_object"},
		{"/v1/objects/nope/X1/related", 404, "unknown_source"},
	}
	for _, c := range cases {
		body := getJSON(t, ts.URL+c.url, c.wantStatus)
		e := body["error"].(map[string]any)
		if e["code"] != c.wantCode {
			t.Errorf("%s: code = %v, want %s", c.url, e["code"], c.wantCode)
		}
		if e["status"].(float64) != float64(c.wantStatus) {
			t.Errorf("%s: body status = %v", c.url, e["status"])
		}
	}
}

// TestHTTPAddSource uploads a CSV flat file and asserts it becomes
// queryable; a duplicate upload returns 409.
func TestHTTPAddSource(t *testing.T) {
	ts, _ := newTestServer(t)

	csv := "accession,name,description\n" +
		"UP001,hemoglobin alpha,oxygen transport protein chain\n" +
		"UP002,lysozyme C,bacteriolytic enzyme found in secretions\n" +
		"UP003,insulin precursor,glucose regulating hormone precursor\n" +
		"UP004,myoglobin,oxygen storage protein of muscle tissue\n"
	url := ts.URL + "/v1/sources?name=upload&format=csv"
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("POST = %d; body: %s", resp.StatusCode, body)
	}
	var rep map[string]any
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep["source"] != "upload" || rep["primary"] == "" {
		t.Errorf("report = %v", rep)
	}

	q := getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT COUNT(*) FROM upload_data"), 200)
	if rows := q["rows"].([]any); rows[0].([]any)[0].(string) != "4" {
		t.Errorf("uploaded rows = %v", rows)
	}

	resp, err = http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Errorf("duplicate POST = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPTimeout gives the server a tiny per-request budget and asserts
// a slow integration maps to 504 with the state unwound. The uploaded
// source and the corpus are sized so integration takes hundreds of
// milliseconds: context timers need the scheduler to run the timer
// goroutine, which a sub-10ms CPU-bound burst on a loaded single-core
// box can outrace.
func TestHTTPTimeout(t *testing.T) {
	db, err := aladin.Open(aladin.WithOntologySources("go"))
	if err != nil {
		t.Fatal(err)
	}
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 120})
	ctx := context.Background()
	for _, name := range []string{"swissprot", "pdb"} {
		if _, err := db.AddSource(ctx, corpus.Source(name)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(newServer(db, time.Millisecond).handler())
	defer ts.Close()

	var csv strings.Builder
	csv.WriteString("accession,name,description\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&csv, "UX%04d,uploaded protein variant %d,"+
			"synthetic description of uploaded protein number %d with enough prose to feed text linking\n", i, i, i)
	}
	resp, err := http.Post(ts.URL+"/v1/sources?name=upload&format=csv", "text/csv",
		strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("POST under 1ms deadline = %d; body: %s", resp.StatusCode, body)
	}
	var e map[string]any
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("invalid error JSON: %v", err)
	}
	if code := e["error"].(map[string]any)["code"]; code != "timeout" {
		t.Errorf("error code = %v, want timeout", code)
	}
	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repo.Sources != 2 {
		t.Errorf("timed-out integration left %d sources, want 2", st.Repo.Sources)
	}
	// The server stays fully usable after the timed-out integration.
	if _, err := db.Query(ctx, "SELECT COUNT(*) FROM swissprot_protein"); err != nil {
		t.Errorf("query after timeout: %v", err)
	}
}

func escape(s string) string {
	r := strings.NewReplacer(" ", "+", "*", "%2A", "(", "%28", ")", "%29")
	return r.Replace(s)
}

// TestHTTPQueryPagination pages through a query with limit + cursor,
// asserting bounded, disjoint pages and a terminating next_cursor.
func TestHTTPQueryPagination(t *testing.T) {
	ts, _ := newTestServer(t)
	q := escape("SELECT accession FROM swissprot_protein ORDER BY accession")

	seen := map[string]bool{}
	var pages []int
	cursor := ""
	for page := 0; ; page++ {
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
		url := ts.URL + "/v1/query?q=" + q + "&limit=4"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		body := getJSON(t, url, 200)
		if body["limit"].(float64) != 4 {
			t.Errorf("page %d: limit echo = %v, want 4", page, body["limit"])
		}
		rows := body["rows"].([]any)
		pages = append(pages, len(rows))
		for _, r := range rows {
			acc := r.([]any)[0].(string)
			if seen[acc] {
				t.Errorf("page %d: row %q repeated across pages", page, acc)
			}
			seen[acc] = true
		}
		next, more := body["next_cursor"].(string)
		if !more {
			break
		}
		if len(rows) != 4 {
			t.Errorf("page %d: non-final page has %d rows, want 4", page, len(rows))
		}
		cursor = next
	}
	if len(seen) != 10 {
		t.Errorf("pages covered %d distinct rows, want 10", len(seen))
	}
	if want := []int{4, 4, 2}; len(pages) != 3 || pages[0] != want[0] || pages[1] != want[1] || pages[2] != want[2] {
		t.Errorf("page sizes = %v, want %v", pages, want)
	}
}

// TestHTTPQueryCap: without an explicit limit the server enforces the
// default cap and reports it in the envelope.
func TestHTTPQueryCap(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT accession FROM swissprot_protein"), 200)
	if body["limit"].(float64) != defaultQueryLimit {
		t.Errorf("default limit echo = %v, want %d", body["limit"], defaultQueryLimit)
	}
	// An absurd limit is clamped to the hard cap, not honored.
	body = getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT accession FROM swissprot_protein")+"&limit=999999", 200)
	if body["limit"].(float64) != maxQueryLimit {
		t.Errorf("oversized limit echo = %v, want %d", body["limit"], maxQueryLimit)
	}
	// Negative limits clamp to 1 instead of silently using the default.
	body = getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT accession FROM swissprot_protein")+"&limit=-5", 200)
	if body["count"].(float64) != 1 {
		t.Errorf("limit=-5 returned count %v, want 1", body["count"])
	}
}

// TestHTTPQueryBadCursor: malformed or replayed cursors are rejected
// with a structured 400.
func TestHTTPQueryBadCursor(t *testing.T) {
	ts, _ := newTestServer(t)
	q := escape("SELECT accession FROM swissprot_protein")

	body := getJSON(t, ts.URL+"/v1/query?q="+q+"&cursor=%21%21not-base64", 400)
	if code := body["error"].(map[string]any)["code"]; code != "bad_cursor" {
		t.Errorf("garbage cursor code = %v, want bad_cursor", code)
	}

	// A valid cursor bound to a different query must not be replayable.
	first := getJSON(t, ts.URL+"/v1/query?q="+q+"&limit=2", 200)
	cursor, ok := first["next_cursor"].(string)
	if !ok {
		t.Fatal("no next_cursor on first page")
	}
	other := escape("SELECT pdb_code FROM pdb_structure")
	body = getJSON(t, ts.URL+"/v1/query?q="+other+"&cursor="+cursor, 400)
	if code := body["error"].(map[string]any)["code"]; code != "bad_cursor" {
		t.Errorf("replayed cursor code = %v, want bad_cursor", code)
	}
}

// TestHTTPInvalidIntParams: non-numeric limit/depth/maxlen values return
// 400 with a structured body instead of silently using the default.
func TestHTTPInvalidIntParams(t *testing.T) {
	ts, _ := newTestServer(t)
	objs := getJSON(t, ts.URL+"/v1/objects/swissprot", 200)
	acc := objs["objects"].([]any)[0].(map[string]any)["accession"].(string)

	for _, url := range []string{
		"/v1/query?q=" + escape("SELECT 1") + "&limit=abc",
		"/v1/search?q=protein&limit=abc",
		"/v1/objects/swissprot/" + acc + "/related?maxlen=abc",
		"/v1/objects/swissprot/" + acc + "/related?limit=1e3",
		"/v1/objects/swissprot/" + acc + "/crawl?depth=two",
	} {
		body := getJSON(t, ts.URL+url, 400)
		if code := body["error"].(map[string]any)["code"]; code != "invalid_parameter" {
			t.Errorf("%s: code = %v, want invalid_parameter", url, code)
		}
	}
	// Negative values clamp instead of erroring.
	if body := getJSON(t, ts.URL+"/v1/search?q=protein&limit=-3", 200); body["count"].(float64) > 1 {
		t.Errorf("search limit=-3 returned %v results, want at most 1", body["count"])
	}
}

// TestHTTPQueryRejectsDML: /v1/query is read-only.
func TestHTTPQueryRejectsDML(t *testing.T) {
	ts, _ := newTestServer(t)
	body := getJSON(t, ts.URL+"/v1/query?q="+escape("DROP TABLE swissprot_protein"), 400)
	if code := body["error"].(map[string]any)["code"]; code != "bad_query" {
		t.Errorf("DML code = %v, want bad_query", code)
	}
}

// TestHTTPQueryExplain: explain=1 adds the access plan to the envelope,
// naming the chosen access paths.
func TestHTTPQueryExplain(t *testing.T) {
	ts, _ := newTestServer(t)

	q := escape("SELECT entry_name FROM swissprot_protein WHERE accession = 'P10001'")
	res := getJSON(t, ts.URL+"/v1/query?q="+q+"&explain=1", 200)
	plan, ok := res["plan"].(string)
	if !ok || plan == "" {
		t.Fatalf("explain=1 returned no plan: %v", res)
	}
	if !strings.Contains(plan, "IndexScan(swissprot_protein") {
		t.Errorf("plan does not name the index access path:\n%s", plan)
	}
	if res["count"].(float64) != 1 {
		t.Errorf("explain=1 suppressed rows: %v", res)
	}

	// Without the flag no plan is attached.
	res = getJSON(t, ts.URL+"/v1/query?q="+q, 200)
	if _, present := res["plan"]; present {
		t.Error("plan attached without explain=1")
	}

	// Bad boolean is a structured 400.
	res = getJSON(t, ts.URL+"/v1/query?q="+q+"&explain=yes", 400)
	if code := res["error"].(map[string]any)["code"]; code != "invalid_parameter" {
		t.Errorf("error code = %v", code)
	}
}

// TestHTTPQueryUnknownParameter: typos like limt=10 are rejected with a
// structured 400 instead of silently applying defaults.
func TestHTTPQueryUnknownParameter(t *testing.T) {
	ts, _ := newTestServer(t)

	q := escape("SELECT COUNT(*) FROM swissprot_protein")
	res := getJSON(t, ts.URL+"/v1/query?q="+q+"&limt=10", 400)
	errObj := res["error"].(map[string]any)
	if errObj["code"] != "unknown_parameter" {
		t.Errorf("error code = %v", errObj["code"])
	}
	if msg := errObj["message"].(string); !strings.Contains(msg, "limt") {
		t.Errorf("message does not name the bad parameter: %q", msg)
	}
	// The known parameters still pass.
	getJSON(t, ts.URL+"/v1/query?q="+q+"&limit=10&explain=0", 200)
}

// TestStreamUploadFullDuplex drives the stream=1 contract through a real
// HTTP connection with a body the server cannot pre-buffer: the request
// is fed through a pipe, and the second half is only written AFTER the
// first NDJSON progress line has come back. Reading the body after the
// response has started requires full-duplex HTTP/1.x — without it the
// remaining reads fail with "invalid Read on closed Body".
func TestStreamUploadFullDuplex(t *testing.T) {
	db, err := aladin.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := httptest.NewServer(newServer(db, 30*time.Second).handler())
	t.Cleanup(ts.Close)

	fasta := func(start, n int) string {
		var sb strings.Builder
		for i := start; i < start+n; i++ {
			fmt.Fprintf(&sb, ">SQ%06d streamed record %d\nACDEFGHIKLMNPQRSTVWY\n", i, i)
		}
		return sb.String()
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sources?name=seqs&format=fasta&stream=1&batch=100", pr)
	if err != nil {
		t.Fatal(err)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := io.WriteString(pw, fasta(0, 120))
		writeErr <- err
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		t.Fatalf("status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}

	lines := json.NewDecoder(resp.Body)
	var first map[string]any
	if err := lines.Decode(&first); err != nil {
		t.Fatalf("first progress line: %v", err)
	}
	if first["batch"] != float64(1) || first["records"] != float64(100) {
		t.Fatalf("first progress = %v", first)
	}

	// The response has started; the rest of the body follows now.
	if _, err := io.WriteString(pw, fasta(120, 180)); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	var last map[string]any
	for {
		var line map[string]any
		if err := lines.Decode(&line); err != nil {
			t.Fatalf("progress stream broke after %v: %v", last, err)
		}
		if e, failed := line["error"]; failed {
			t.Fatalf("ingest failed mid-stream: %v", e)
		}
		if done, _ := line["done"].(bool); done {
			last = line
			break
		}
		last = line
	}
	if last["records"] != float64(300) || last["batches"] != float64(3) {
		t.Fatalf("done line = %v", last)
	}

	res := getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT COUNT(*) FROM seqs_fasta"), 200)
	if rows := fmt.Sprint(res["rows"]); rows != "[[300]]" {
		t.Fatalf("row count after streamed upload = %s", rows)
	}
}

// TestStreamUploadOutlivesRequestTimeout: a streamed upload is bounded
// per batch, so the request-wide deadline does not apply to it — a body
// trickling in for several times the timeout still commits every batch
// and ends with the done line — while a whole-file upload to the same
// server is still cut off with a 504.
func TestStreamUploadOutlivesRequestTimeout(t *testing.T) {
	db, err := aladin.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const timeout = 100 * time.Millisecond
	ts := httptest.NewServer(newServer(db, timeout).handler())
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sources?name=seqs&format=fasta&stream=1&batch=50", pr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	go func() {
		// Four batches, one per timeout's worth of waiting.
		for b := 0; b < 4; b++ {
			var sb strings.Builder
			for i := b * 50; i < (b+1)*50; i++ {
				fmt.Fprintf(&sb, ">SQ%06d trickled record %d\nACDEFGHIKLMNPQRSTVWY\n", i, i)
			}
			if _, err := io.WriteString(pw, sb.String()); err != nil {
				pw.CloseWithError(err)
				return
			}
			time.Sleep(timeout)
		}
		pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := json.NewDecoder(resp.Body)
	var last map[string]any
	for {
		var line map[string]any
		if err := lines.Decode(&line); err != nil {
			t.Fatalf("progress stream broke after %v: %v", last, err)
		}
		if e, failed := line["error"]; failed {
			t.Fatalf("streamed upload failed after %v: %v", time.Since(start), e)
		}
		last = line
		if done, _ := line["done"].(bool); done {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 3*timeout {
		t.Fatalf("upload took %v, too quick to have outlived the %v timeout", elapsed, timeout)
	}
	if last["records"] != float64(200) || last["batches"].(float64) < 3 {
		t.Fatalf("done line = %v", last)
	}
	res := getJSON(t, ts.URL+"/v1/query?q="+escape("SELECT COUNT(*) FROM seqs_fasta"), 200)
	if rows := fmt.Sprint(res["rows"]); rows != "[[200]]" {
		t.Fatalf("row count after streamed upload = %s", rows)
	}

	// Not a streamed upload: the deadline still applies. The body stalls
	// past it, so the parse fails on a canceled request whatever the CPU
	// is doing.
	slow, slowW := io.Pipe()
	go func() {
		io.WriteString(slowW, "accession,name\nUX0001,first\n")
		time.Sleep(3 * timeout)
		slowW.Close()
	}()
	resp2, err := http.Post(ts.URL+"/v1/sources?name=upload&format=csv", "text/csv", slow)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("whole-file POST under a %v deadline = %d; body: %s", timeout, resp2.StatusCode, body)
	}
}

// TestAppendJSONStringsMatchesMarshal: the row encoder writes exactly
// the bytes json.Marshal writes for a []string, escapes included — '<',
// '>' and '&', U+2028 and U+2029, every control byte, invalid UTF-8 —
// over fixed strings and every string of up to two bytes drawn from a
// set that reaches each rule.
func TestAppendJSONStringsMatchesMarshal(t *testing.T) {
	cases := [][]string{
		{},
		{""},
		{"P12345", "hemoglobin alpha"},
		{`say "hi"`, `back\slash`, "<b>&amp;</b>", "tab\there\nnew\rline\b\f"},
		{"\x00\x01\x1f\x7f", "line\u2028sep\u2029para", "bad \xff\xfe utf8", "cut \xe2\x82", "ünïcødé ✓ 🧬"},
	}
	alphabet := []string{"a", "\"", "\\", "<", ">", "&", "\x00", "\x08", "\x0c", "\n", "\x1f", "\x7f", "\x80", "\xff", "é", "\u2028", "\u2029", "\xe2\x80"}
	for _, a := range alphabet {
		for _, b := range alphabet {
			cases = append(cases, []string{a + b, b})
		}
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONStrings([]byte("x"), c); string(got) != "x"+string(want) {
			t.Errorf("%q: got %s, json.Marshal %s", c, got[1:], want)
		}
	}
}
