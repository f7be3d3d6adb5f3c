package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/bench/corpus"
)

// request is one read and the answer the generator says it must return.
type request struct {
	class string
	path  string
	// want are byte strings the 200 response must contain. The generator
	// makes descriptions and accessions unique, so containment is as strong
	// as decoding the JSON and costs the load generator far less CPU — CPU
	// it shares with the server on a small box.
	want []string
	// then, when set, derives a follow-up request from the response (the
	// next page of a cursor); the worker sends it next.
	then func(body []byte) *request
	// call is the same read as an in-process call, for the traced run.
	call call
}

// call describes a read for the in-process replay: a SQL text with the
// page size the server would apply, an object to browse or rank from, or
// a search.
type call struct {
	sql    string
	limit  int
	ref    corpus.Ref
	search string
}

// mix is a traffic mix; stream opens one worker's request stream over it,
// drawing from the worker's own random source. A stream walks through the
// mix's kinds of read in a fixed order, so that every cycle of it is the
// same work whatever the seed; only the keys are drawn. cycle is how many
// requests (follow-ups included) one walk sends.
type mix interface {
	stream(rng *rand.Rand) func() *request
	cycle() int
}

// pointMix is the cheap-read mix: an indexed point SELECT (4 in 10), the
// browse view (3 in 10), a full-text search (2 in 10) and ranked related
// objects (1 in 10: ranking costs ten times the others, and must not
// dominate), in that order, each for one key drawn uniformly from the
// file's records.
// Every key yields its own SQL text, so over a file of n records a plan
// cache of c entries misses about 1 - c/n of the point SELECTs; the run
// measures the share (planLRU) instead of trusting that estimate.
type pointMix struct {
	f *corpus.File
}

// aladind's page sizes: rows per /v1/query response without a limit
// parameter, and the most a limit may ask for.
const (
	defaultPage = 100
	maxPage     = 1000
)

func (m pointMix) stream(rng *rand.Rand) func() *request {
	n := 0
	return func() *request {
		n++
		return m.request(rng.Intn(m.f.Records()), (n-1)%m.cycle())
	}
}

func (m pointMix) cycle() int { return 10 }

// request builds the read for record i; shape, 0..9, picks the kind of
// read.
func (m pointMix) request(i, shape int) *request {
	f := m.f
	acc := f.Acc[i]
	obj := "/v1/objects/" + f.Source + "/" + url.PathEscape(acc)
	echo := `"accession":"` + acc + `"`
	switch {
	case shape < 4:
		sql := fmt.Sprintf("SELECT %s, %s FROM %s_%s WHERE %s = '%s'",
			f.AccessionColumn, f.DescColumn, f.Source, f.Primary, f.AccessionColumn, acc)
		return &request{class: "point", path: queryPath(sql, 0, ""), want: []string{f.Desc[i], `"count":1`},
			call: call{sql: sql, limit: defaultPage}}
	case shape < 7:
		return &request{class: "object", path: obj, want: []string{f.Desc[i], echo}, call: call{ref: corpus.Ref{Source: f.Source, Accession: acc}}}
	case shape == 9:
		return &request{class: "related", path: obj + "/related?maxlen=2&limit=5", want: []string{echo}, call: call{ref: corpus.Ref{Source: f.Source, Accession: acc}}}
	default:
		return &request{class: "search", path: "/v1/search?limit=3&source=" + f.Source + "&q=" + f.Token[i],
			want: []string{echo}, call: call{ref: corpus.Ref{Source: f.Source}, search: f.Token[i]}}
	}
}

// scanMix is the heavy-read mix over one EMBL source: LIKE scans over the
// sequences, a two-way join, GROUP BY, DISTINCT, and an ORDER BY whose
// 1,000-row first page is followed through next_cursor. It issues at most
// 16 distinct SQL texts, so the plan cache always hits; the expected
// answers are computed from the generator's own records.
type scanMix struct {
	reqs []*request
}

var scanMotifs = []string{"ACGTA", "GGATC", "TTAGC", "CATGC"}

func newScanMix(f *corpus.File) scanMix {
	src := f.Source
	var m scanMix
	for _, motif := range scanMotifs {
		n := 0
		for _, s := range f.Seq {
			if strings.Contains(s, motif) {
				n++
			}
		}
		sql := fmt.Sprintf("SELECT COUNT(*) FROM %s_sequence WHERE seq LIKE '%%%s%%'", src, motif)
		m.reqs = append(m.reqs, &request{class: "like", path: queryPath(sql, 0, ""), want: []string{fmt.Sprintf(`[["%d"]]`, n)},
			call: call{sql: sql, limit: defaultPage}})
	}
	perKeyword := map[string]int{}
	for _, kws := range f.Keywords {
		for _, k := range kws {
			perKeyword[k]++
		}
	}
	vocab := make([]string, 0, len(perKeyword))
	for k := range perKeyword {
		vocab = append(vocab, k)
	}
	sort.Strings(vocab)
	for _, k := range vocab[:min(3, len(vocab))] {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM %s_entry e JOIN %s_keyword k ON k.entry_id = e.entry_id WHERE k.keyword = '%s'", src, src, k)
		m.reqs = append(m.reqs, &request{class: "join", path: queryPath(sql, 0, ""), want: []string{fmt.Sprintf(`[["%d"]]`, perKeyword[k])},
			call: call{sql: sql, limit: defaultPage}})
	}
	perOrganism := map[string]int{}
	for _, o := range f.Organism {
		perOrganism[o]++
	}
	var groups []string
	for o, n := range perOrganism {
		groups = append(groups, fmt.Sprintf(`["%s","%d"]`, o, n))
	}
	sort.Strings(groups)
	group := fmt.Sprintf("SELECT organism, COUNT(*) FROM %s_entry GROUP BY organism", src)
	m.reqs = append(m.reqs, &request{class: "group", want: groups, path: queryPath(group, 0, ""),
		call: call{sql: group, limit: defaultPage}})
	distinct := fmt.Sprintf("SELECT DISTINCT keyword FROM %s_keyword", src)
	m.reqs = append(m.reqs, &request{class: "distinct", want: []string{fmt.Sprintf(`"count":%d`, len(vocab))},
		path: queryPath(distinct, 0, ""), call: call{sql: distinct, limit: defaultPage}})

	// ORDER BY: the first page is the server's maximum of 1,000 rows; the
	// cursor it returns must lead to the rest.
	const page = maxPage
	order := fmt.Sprintf("SELECT accession, description FROM %s_entry ORDER BY accession", src)
	sorted := append([]string(nil), f.Acc...)
	sort.Strings(sorted)
	first := &request{class: "order", path: queryPath(order, page, ""), call: call{sql: order, limit: page},
		want: []string{fmt.Sprintf(`"count":%d`, min(page, len(sorted))), `[["` + sorted[0] + `"`}}
	if len(sorted) > page {
		rest := min(page, len(sorted)-page)
		first.then = func(body []byte) *request {
			var env struct {
				NextCursor string `json:"next_cursor"`
			}
			if json.Unmarshal(body, &env) != nil || env.NextCursor == "" {
				return nil
			}
			return &request{class: "order", path: queryPath(order, page, env.NextCursor), call: call{sql: order, limit: page},
				want: []string{fmt.Sprintf(`"count":%d`, rest), `[["` + sorted[page] + `"`}}
		}
		first.want = append(first.want, `"next_cursor"`)
	}
	m.reqs = append(m.reqs, first)
	return m
}

func (m scanMix) stream(*rand.Rand) func() *request {
	n := 0
	return func() *request {
		n++
		return m.reqs[(n-1)%len(m.reqs)]
	}
}

func (m scanMix) cycle() int {
	n := len(m.reqs)
	for _, r := range m.reqs {
		if r.then != nil {
			n++
		}
	}
	return n
}

// reader is one worker's view of a mix: its own seeded random stream and
// the follow-up request a previous response queued.
type reader struct {
	api     *api
	next    func() *request
	pending *request
	buf     bytes.Buffer // response body, reused: the loop should not feed the GC
}

func newReaders(a *api, m mix, seed int64, n int) []*reader {
	rs := make([]*reader, n)
	for w := range rs {
		rs[w] = &reader{api: a, next: m.stream(rand.New(rand.NewSource(seed*1009 + int64(w))))}
	}
	return rs
}

// do sends the worker's next request, checks the answer and returns the
// request it sent.
func (r *reader) do() (*request, error) {
	req := r.pending
	r.pending = nil
	if req == nil {
		req = r.next()
	}
	resp, err := r.api.hc.Get(r.api.base + req.path)
	if err != nil {
		return req, err
	}
	r.buf.Reset()
	_, err = r.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return req, err
	}
	body := r.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return req, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, firstLine(body))
	}
	for _, w := range req.want {
		if !bytes.Contains(body, []byte(w)) {
			return req, fmt.Errorf("%s: response lacks %s: %s", req.path, strconv.Quote(w), firstLine(body))
		}
	}
	if req.then != nil {
		if r.pending = req.then(body); r.pending == nil {
			return req, fmt.Errorf("%s: no usable next_cursor in the response", req.path)
		}
	}
	return req, nil
}

// planCacheSize is the size of aladind's plan cache (cmd/aladind opens the
// warehouse with aladin.WithPlanCache(128)): an exact LRU keyed by SQL
// text.
const planCacheSize = 128

// planLRU replays the SQL texts the load generator sent through a cache of
// aladind's size and policy and counts the hits and misses. aladind
// publishes no such counter, so this is a model of its cache, fed in the
// order the responses came back; it is what tells a workload that mostly
// plans from scratch from one that never does.
type planLRU struct {
	mu           sync.Mutex
	recent       *list.List // SQL texts, most recently used first
	at           map[string]*list.Element
	hits, misses int
}

func newPlanLRU() *planLRU {
	return &planLRU{recent: list.New(), at: map[string]*list.Element{}}
}

// touch looks sql up, caches it, and reports whether it was cached.
func (c *planLRU) touch(sql string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.at[sql]; ok {
		c.recent.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	c.at[sql] = c.recent.PushFront(sql)
	if c.recent.Len() > planCacheSize {
		delete(c.at, c.recent.Remove(c.recent.Back()).(string))
	}
	return false
}

// resetCounts forgets the counts but not the cached texts: the warm-up
// that precedes a measured phase fills aladind's cache too.
func (c *planLRU) resetCounts() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = 0, 0
}
