package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/bench/corpus"
)

// api is a thin client of one aladind.
type api struct {
	base string
	hc   *http.Client
}

// newAPI returns a client limited to conns connections to base.
func newAPI(base string, conns int) *api {
	return &api{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// get fetches path and returns status, headers and the whole body.
func (a *api) get(path string) (int, http.Header, []byte, error) {
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// getJSON fetches path, requires a 200 and decodes the body into v.
func (a *api) getJSON(path string, v any) error {
	status, _, body, err := a.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// queryResult is the /v1/query envelope.
type queryResult struct {
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Count      int        `json:"count"`
	NextCursor string     `json:"next_cursor"`
}

func queryPath(sql string, limit int, cursor string) string {
	p := "/v1/query?q=" + url.QueryEscape(sql)
	if limit > 0 {
		p += "&limit=" + strconv.Itoa(limit)
	}
	if cursor != "" {
		p += "&cursor=" + url.QueryEscape(cursor)
	}
	return p
}

// query runs one SQL statement and returns its first page.
func (a *api) query(sql string) (*queryResult, error) {
	var res queryResult
	if err := a.getJSON(queryPath(sql, 0, ""), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// count runs SELECT COUNT(*) FROM table.
func (a *api) count(table string) (int, error) {
	res, err := a.query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("COUNT(*) FROM %s: unexpected shape %v", table, res.Rows)
	}
	return strconv.Atoi(res.Rows[0][0])
}

// snapshotSeq parses the mutation sequence out of an X-Aladin-Snapshot
// header value ("g<gen>-s<seq>").
func snapshotSeq(h string) (uint64, bool) {
	i := strings.LastIndex(h, "-s")
	if i < 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(h[i+2:], 10, 64)
	return seq, err == nil
}

// snapshot returns the snapshot ID the server would serve a read from now.
func (a *api) snapshot() (string, error) {
	status, hdr, _, err := a.get("/v1/sources")
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("GET /v1/sources: status %d", status)
	}
	return hdr.Get("X-Aladin-Snapshot"), nil
}

// uploaded describes one finished upload.
type uploaded struct {
	start   time.Time
	wall    time.Duration // request start to the final response line
	records int
	batches int
	// acks holds, per committed batch of a streamed upload, the mutation
	// sequence it committed at and when its progress line arrived.
	acks []ack
}

type ack struct {
	seq uint64
	at  time.Time
}

// segments cuts the upload's wall time at its acknowledgements: request
// start to the first batch's progress line, each further batch, and the
// last progress line to the final one. A whole-file upload is one segment.
// The same file uploaded with the same batch size always has the same
// segments, so repetitions can be compared segment by segment.
func (u *uploaded) segments() []float64 {
	segs := make([]float64, 0, len(u.acks)+1)
	prev := u.start
	for _, a := range u.acks {
		segs = append(segs, a.at.Sub(prev).Seconds())
		prev = a.at
	}
	return append(segs, u.start.Add(u.wall).Sub(prev).Seconds())
}

// upload integrates f. Streamable formats go through stream=1 with the
// given batch size and report one ack per committed batch; OBO has no
// streaming scanner and takes the whole-file path.
func (a *api) upload(f *corpus.File, batch int) (*uploaded, error) {
	stream := f.Format != "obo"
	path := fmt.Sprintf("/v1/sources?name=%s&format=%s", f.Source, f.Format)
	if stream {
		path += fmt.Sprintf("&stream=1&batch=%d", batch)
	}
	t0 := time.Now()
	resp, err := a.hc.Post(a.base+path, "text/plain", bytes.NewReader(f.Text))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	up := &uploaded{start: t0}
	if !stream {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("upload %s: status %d: %s", f.Source, resp.StatusCode, firstLine(body))
		}
		up.wall, up.records, up.batches = time.Since(t0), f.Records(), 1
		return up, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("upload %s: status %d: %s", f.Source, resp.StatusCode, firstLine(body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	done := false
	for sc.Scan() {
		at := time.Now()
		var line struct {
			Done    bool            `json:"done"`
			Batch   int             `json:"batch"`
			Records int             `json:"records"`
			Batches int             `json:"batches"`
			Seq     uint64          `json:"seq"`
			Error   json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("upload %s: bad progress line %q: %w", f.Source, sc.Text(), err)
		}
		switch {
		case line.Error != nil:
			return nil, fmt.Errorf("upload %s failed mid-stream: %s", f.Source, line.Error)
		case line.Done:
			done = true
			up.wall, up.records, up.batches = at.Sub(t0), line.Records, line.Batches
		default:
			up.acks = append(up.acks, ack{seq: line.Seq, at: at})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("upload %s: stream ended without a done line", f.Source)
	}
	return up, nil
}
