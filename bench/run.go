package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/bench/corpus"
	"repro/bench/load"
	"repro/bench/server"
	"repro/bench/stats"
)

// env is what one invocation of the harness works with.
type env struct {
	root  string // checkout root: go.mod and cmd/aladind live here
	work  string // scratch directory inside the checkout
	nproc int    // clients of the closed loop, connections of the open one
	// verbose prints every repetition's timings to standard error, for
	// calibrating sizes and looking at the sandbox's noise.
	verbose bool
}

func (e *env) logf(format string, args ...any) {
	if e.verbose {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// base is a loaded warehouse: its sources streamed into an empty node,
// checked against the generator and folded into segments by a graceful
// shutdown. Every run serves from its own copy of dir.
type base struct {
	dir       string
	expect    map[string]int // table -> rows it must hold
	userBytes int64          // bytes uploaded
}

// outcome is what one run of one workload measured.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	// reads are the measured read-phase samples of every serving pass; the
	// traced run takes its per-class HTTP medians from them.
	reads []load.Sample
	// lags are, per committed tail batch of every serving pass, the
	// milliseconds from its acknowledgement to its visibility on the
	// replica.
	lags []float64
	// peaks holds, per role of a primary (loading, serving, recovered), the
	// peak RSS in MB of every process that played it.
	peaks map[string][]float64
	// planHits and planMisses count the measured SQL reads the model of
	// aladind's plan cache held and did not hold.
	planHits, planMisses int
	// inputs, kept for the traced run's in-process replay.
	files []*corpus.File
	gold  []corpus.Link
	tail  *corpus.File
	mix   mix
	bin   string
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	}
	return false
}

const (
	// Every timing is taken several times in a run, the quickest is taken
	// (see stats.Min) and divided by how much the CPU was shared meanwhile
	// (see contention.go). The sandbox has no steady speed: the same
	// single-threaded work takes up to 1.8 times as long in bursts of
	// milliseconds whose density drifts over minutes (README.md has the
	// measurements). The quickest of repetitions that lie seconds apart
	// sheds the bursts that came and went in between; the division sheds
	// most of what stayed for the whole run.
	//
	// loadRepeats is how often a run sets up (generate inputs, build
	// aladind — the first build in a checkout compiles everything, later
	// ones hit the build cache — and boot an empty node) and loads that
	// node; the last one lives on. A load is timed segment by segment (see
	// uploaded.segments) and the quickest repetition of every segment
	// counts, so one slow stretch costs the segment it hit, not the load.
	loadRepeats = 5
	// serveRounds is how often the serving half goes round: read, attach a
	// fresh replica, stream a tail source in while the replica follows,
	// kill -9 and recover. Every timing of the serving half so has
	// serveRounds repetitions (readWindows x serveRounds for reads) spread
	// over the whole half instead of back to back.
	serveRounds = 8
	// readWindows is how many stretches of equally many reads a round's
	// closed read loop has; throughput and median latency are those of the
	// run's third best stretch. A stretch is spec.windowCycles walks
	// through the mix, about 0.15 s.
	readWindows = 3
	// pointChecks is how many seeded point lookups verify the load.
	pointChecks = 20
	// openLoopLimit bounds an open read loop whose tail upload never ends.
	openLoopLimit = 2 * time.Minute
	// slowRead is the open-loop deadline: a read answered later than this
	// after it was due counts as failed.
	slowRead = time.Second
	// stalledRead is the open loop's latency limit. Beside a streamed
	// upload a point read, a tenth of a millisecond alone, takes 1 ms at
	// the 10th percentile, 10 ms at the median and 45 ms at the 90th,
	// counted from its due time: it waits for the writer's CPU, lock and
	// garbage, and for the reads queued before it. One answered later than
	// this has sat out a long stall.
	stalledRead = 50 * time.Millisecond
	// pollEvery paces the harness's pollers (first record visible, replica
	// sequence). They share the CPU with the servers they watch.
	pollEvery = 5 * time.Millisecond
)

// run is the state of one pass over half of the life cycle described at
// spec: the load half (loadBase) or the serving half (serve).
type run struct {
	e    *env
	sp   *spec
	o    *outcome
	seed int64
	k    float64 // size scale: seconds / runSeconds
	work string  // this half's scratch directory

	primary *server.Proc
	ctl     *api // control connection to the current primary
	dataDir string
	replica *server.Proc
	rctl    *api

	expect    map[string]int // table -> rows it must hold
	userBytes int64          // bytes uploaded to the surviving primary
	peakErr   error
	gauge     gauge // how much of the CPU this half had (contention.go)
}

// runWorkload runs one workload once. An error means the harness could not
// complete the run; wrong answers from the servers are recorded in the
// outcome instead.
func runWorkload(e *env, sp *spec, seed int64, seconds float64) (*outcome, error) {
	k := seconds / runSeconds
	work, err := os.MkdirTemp(e.work, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o := &outcome{metrics: map[string]float64{}, peaks: map[string][]float64{}}
	b, err := loadBase(e, sp, seed, k, filepath.Join(work, "load"), o)
	if err != nil {
		return nil, err
	}
	if err := serve(e, sp, seed, k, filepath.Join(work, "serve"), b, o); err != nil {
		return nil, err
	}
	var latencies, late []float64
	for _, s := range o.reads {
		latencies, late = append(latencies, float64(s.Latency)/1e6), append(late, float64(s.Late)/1e6)
	}
	o.metrics["read_p99_ms"] = stats.Percentile(latencies, 99)
	o.metrics["loadgen.late_ms_p99"] = stats.Percentile(late, 99)
	o.metrics["repl_visible_lag_ms"] = stats.Median(o.lags)
	o.metrics["aladin.plan_cache_miss_share"] = float64(o.planMisses) / float64(max(1, o.planHits+o.planMisses))
	return o, nil
}

// serve walks the serving half of the life cycle serveRounds times, each
// time on a fresh copy of the loaded warehouse so that every round is the
// same work, and adds what it measured and counted to o.
func serve(e *env, sp *spec, seed int64, k float64, work string, b *base, o *outcome) error {
	r := &run{e: e, sp: sp, seed: seed, k: k, work: work, o: o}
	defer r.cleanup()
	o.mix = sp.mix(o.files)
	t := &served{plans: newPlanLRU()}
	for round := 0; round < serveRounds; round++ {
		if err := r.serveRound(round, b, t); err != nil {
			return err
		}
	}
	e.logf("read stretches: %.0f req/s, medians %.3f ms", t.rates, t.medians)
	e.logf("replica bootstraps %.3f s, recoveries %.3f s, lags %.1f ms", t.bootstraps, t.recovers, o.lags)
	e.logf("peak RSS in MB %v", o.peaks)
	shared := r.gauge.factor()
	e.logf("serving half: CPU shared by a factor of %.3f", shared)
	o.metrics["sandbox.cpu_shared_serve"] = shared
	if sp.openRate > 0 {
		// Beside writes every read of every round counts, commits and all:
		// latencies beside an upload are spread over two decades, and a
		// single round's few hundred do not pin their median. The schedule
		// fixes the rate sent, so throughput is the reads per second
		// answered without a long stall; a count against a fixed limit is
		// not a time and is reported as counted.
		var latencies []float64
		for _, s := range o.reads {
			latencies = append(latencies, float64(s.Latency)/1e6)
		}
		o.metrics["read_ops_per_s"] = float64(t.unstalled) / t.openWall.Seconds()
		o.metrics["read_p50_ms"] = stats.Median(latencies) / shared
		o.metrics["ingest_records_per_s"] = stats.Max(t.tailRates) * shared
	} else {
		// Stretches of a closed loop are short, so their rates scatter on
		// a calm machine too, and the very best of them is the luckiest;
		// the third best of 24 is the steadier stand-in for an undisturbed
		// stretch.
		o.metrics["read_ops_per_s"] = stats.Percentile(t.rates, 90) * shared
		o.metrics["read_p50_ms"] = stats.Percentile(t.medians, 10) / shared
	}
	o.metrics["replica_bootstrap_s"] = stats.Min(t.bootstraps) / shared
	o.metrics["recover_ready_s"] = stats.Min(t.recovers) / shared
	// The run's memory need is that of the hungriest role; within a role,
	// as with timings, the repetition that needed least counts.
	for _, peaks := range o.peaks {
		o.metrics["server_peak_rss_mb"] = max(o.metrics["server_peak_rss_mb"], stats.Min(peaks))
	}
	o.planHits, o.planMisses = t.plans.hits, t.plans.misses
	return r.peakErr
}

// served collects what the rounds of a serving half measured.
type served struct {
	plans *planLRU
	// rates and medians are, per stretch of reads (in an open loop: per
	// round), the reads per second and the median latency in ms.
	rates, medians       []float64
	bootstraps, recovers []float64 // seconds, per round
	tailRates            []float64 // records per second of the tail upload beside an open loop, per round
	// unstalled counts the open loop's reads answered within stalledRead,
	// openWall is how long the open loops ran, all rounds together.
	unstalled int
	openWall  time.Duration
}

// loadBase walks the load half of the life cycle in work and returns the
// loaded warehouse; what it measured and counted goes to o.
func loadBase(e *env, sp *spec, seed int64, k float64, work string, o *outcome) (*base, error) {
	r := &run{e: e, sp: sp, seed: seed, k: k, work: work, expect: map[string]int{}, o: o}
	defer r.cleanup()
	for _, phase := range []func() error{r.setUpAndLoad, r.checkLoaded, r.stopLoaded} {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	if r.peakErr != nil {
		return nil, r.peakErr
	}
	return &base{dir: r.dataDir, expect: r.expect, userBytes: r.userBytes}, nil
}

func (r *run) cleanup() {
	for _, p := range []*server.Proc{r.primary, r.replica} {
		if p != nil {
			p.Kill()
		}
	}
	for _, a := range []*api{r.ctl, r.rctl} {
		if a != nil {
			a.close()
		}
	}
}

// startPrimary (re)boots the primary on the run's data directory.
func (r *run) startPrimary(checkpointEvery int) (err error) {
	if r.ctl != nil {
		r.ctl.close()
	}
	if r.primary, err = server.StartPrimary(r.o.bin, r.dataDir, checkpointEvery); err != nil {
		return err
	}
	r.ctl = newAPI(r.primary.URL, 2)
	return nil
}

// notePeak records the primary's peak RSS under the role it played; it is
// called before every stop or kill.
func (r *run) notePeak(role string) {
	rss, err := r.primary.PeakRSSMB()
	if err != nil {
		r.peakErr = err
	}
	r.o.peaks[role] = append(r.o.peaks[role], rss)
}

// setUpAndLoad sets up loadRepeats times and streams the workload's sources
// into every one of those nodes; the last one survives.
func (r *run) setUpAndLoad() error {
	o := r.o
	var setups, visibles []float64
	var segments [][][]float64 // per file, per segment: every repetition
	for i := 0; i < loadRepeats; i++ {
		r.gauge.sample()
		t0 := time.Now()
		o.files, o.gold = corpora[r.sp.corpus](r.seed, r.k)
		o.tail = r.tailFile()
		bin, err := server.Build(r.e.root, r.e.work)
		if err != nil {
			return err
		}
		o.bin = bin
		r.dataDir = filepath.Join(r.work, fmt.Sprintf("primary-%d", i))
		if err := r.startPrimary(server.CheckpointEvery8); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		segs, visible, err := r.load()
		if err != nil {
			return err
		}
		r.e.logf("set-up %d: %.3f s, load segments %.3f, first visible %.3f s", i, setups[i], segs, visible)
		if segments == nil {
			segments = make([][][]float64, len(segs))
			for f := range segs {
				segments[f] = make([][]float64, len(segs[f]))
			}
		}
		for f := range segs {
			if len(segs[f]) != len(segments[f]) {
				return fmt.Errorf("%s: %d upload segments, an earlier load had %d", o.files[f].Source, len(segs[f]), len(segments[f]))
			}
			for j, v := range segs[f] {
				segments[f][j] = append(segments[f][j], v)
			}
		}
		visibles = append(visibles, visible)
		if i < loadRepeats-1 {
			r.notePeak("loading")
			r.primary.Kill()
			if err := os.RemoveAll(r.dataDir); err != nil {
				return err
			}
		}
	}
	// An upload's wall time is the sum over its segments of the quickest
	// repetition: one slow stretch then costs the segment it hit, and only
	// if it hit that segment in every load.
	var integrate, streamedRecs, streamedSec float64
	for i, f := range o.files {
		wall := 0.0
		for _, repeats := range segments[i] {
			wall += stats.Min(repeats)
		}
		integrate += wall
		if f.Format != "obo" {
			streamedRecs += float64(f.Records())
			streamedSec += wall
		}
		r.userBytes += int64(len(f.Text))
		r.expect[f.Source+"_"+f.Primary] = f.Records()
	}
	shared := r.gauge.factor()
	r.e.logf("load half: CPU shared by a factor of %.3f", shared)
	o.metrics["sandbox.cpu_shared_load"] = shared
	o.metrics["setup_s"] = stats.Min(setups) / shared
	o.metrics["ingest_records_per_s"] = streamedRecs / streamedSec * shared
	o.metrics["integrate_s"] = integrate / shared
	o.metrics["ingest_first_visible_s"] = stats.Min(visibles) / shared
	return nil
}

// load streams every source into the current primary (the ontology goes
// whole-file) while polling the first record until a point read answers
// with it. It returns every upload's segments in seconds and the time to
// first visibility.
func (r *run) load() (segs [][]float64, firstVisible float64, err error) {
	o := r.o
	visible := pollVisible(r.primary.URL, o.files[0])
	defer visible.stop()
	for _, f := range o.files {
		r.gauge.sample()
		up, err := r.ctl.upload(f, streamBatch)
		if err != nil {
			return nil, 0, err
		}
		o.attempted += len(up.acks) + 1
		segs = append(segs, up.segments())
		o.op(boolErr(up.records == f.Records(), "%s: %d records integrated, %d generated", f.Source, up.records, f.Records()))
	}
	r.gauge.sample()
	took, ok := visible.stop()
	if !ok {
		return nil, 0, fmt.Errorf("the first record of %s never became readable", o.files[0].Source)
	}
	o.attempted++
	return segs, took.Seconds(), nil
}

// checkLoaded runs the output checks on the loaded warehouse and scores
// the links it found.
func (r *run) checkLoaded() error {
	checkStructure(r.o, r.ctl)
	checkCounts(r.o, r.ctl, r.expect)
	checkPoints(r.o, r.ctl, r.o.files, r.seed)
	score, err := linkF1(r.o, r.ctl, r.o.gold)
	r.o.metrics["link_f1"] = score
	return err
}

// stopLoaded stops the loaded primary gracefully: the shutdown checkpoint
// folds the whole load into segments.
func (r *run) stopLoaded() error {
	r.notePeak("loading")
	if err := r.primary.Stop(); err != nil {
		return fmt.Errorf("stopping the loaded primary: %w", err)
	}
	r.primary = nil
	return nil
}

// serveRound is one round of the serving half: boot on a fresh copy of
// the loaded warehouse in the serving configuration (it never checkpoints
// by count, see server.CheckpointNever), read, attach a replica, stream
// the tail source in while the replica follows, and kill and recover the
// primary with the tail only in its WAL. The last round's primary is then
// stopped gracefully and what it stored is weighed.
func (r *run) serveRound(round int, b *base, t *served) error {
	o, sp := r.o, r.sp
	r.dataDir = filepath.Join(r.work, fmt.Sprintf("primary-%d", round))
	r.userBytes = b.userBytes
	r.expect = map[string]int{}
	for table, n := range b.expect {
		r.expect[table] = n
	}
	if err := server.CopyDir(r.dataDir, b.dir); err != nil {
		return err
	}
	if err := r.startPrimary(server.CheckpointNever); err != nil {
		return err
	}
	checkCounts(o, r.ctl, r.expect)

	readAPI := newAPI(r.primary.URL, r.e.nproc)
	defer readAPI.close()
	readers := newReaders(readAPI, o.mix, r.seed*serveRounds+int64(round), r.e.nproc)
	read := func(w int) (string, error) {
		req, err := readers[w].do()
		if req.call.sql != "" {
			t.plans.touch(req.call.sql)
		}
		return req.class, err
	}
	// A third of a stretch warms the new process before anything is timed.
	window := scale(sp.windowCycles, r.k) * o.mix.cycle()
	load.Closed(r.e.nproc, (window+2)/3, read)
	if round == 0 {
		t.plans.resetCounts()
	}
	if sp.openRate == 0 {
		// The last round goes on until the run has the sample a 99th
		// percentile needs, which only a small --seconds leaves open.
		for w := 0; w < readWindows || (round == serveRounds-1 && !stats.Supports(len(o.reads), 99)); w++ {
			r.gauge.sample()
			t0 := time.Now()
			reads := load.Closed(r.e.nproc, window, read)
			rate, median := r.countReads(reads, time.Since(t0))
			t.rates, t.medians = append(t.rates, rate), append(t.medians, median)
		}
	}

	r.gauge.sample()
	bootstrap, err := r.attachReplica(round)
	if err != nil {
		return err
	}
	r.gauge.sample()
	t.bootstraps = append(t.bootstraps, bootstrap)

	var up *uploaded
	var lags []float64
	var tailErr error
	streamTail := func() {
		watch := watchSeq(r.replica.URL)
		if up, tailErr = r.ctl.upload(o.tail, scale(sp.tailBatch, r.k)); tailErr != nil {
			watch.stop()
			return
		}
		lags, tailErr = watch.lags(up.acks)
	}
	if sp.openRate > 0 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			streamTail()
		}()
		t0 := time.Now()
		reads := load.Open(r.e.nproc, sp.openRate, openLoopLimit, done, read)
		wall := time.Since(t0)
		<-done
		r.gauge.sample()
		if tailErr == nil {
			rate, median := r.countReads(reads, wall)
			t.rates, t.medians = append(t.rates, rate), append(t.medians, median)
			t.unstalled += int(rate*wall.Seconds() + 0.5)
			t.openWall += wall
			t.tailRates = append(t.tailRates, float64(up.records)/up.wall.Seconds())
		}
	} else {
		streamTail()
	}
	if tailErr != nil {
		return tailErr
	}
	o.lags = append(o.lags, lags...)
	o.attempted += len(up.acks) + 1
	r.userBytes += int64(len(o.tail.Text))
	r.expect[o.tail.Source+"_"+o.tail.Primary] = o.tail.Records()
	checkCounts(o, r.ctl, r.expect)
	want, err := r.ctl.snapshot()
	if err != nil {
		return err
	}
	o.op(awaitSeq(r.rctl, want, 30*time.Second))
	checkCounts(o, r.rctl, r.expect)
	r.replica.Kill()
	r.rctl.close()
	r.replica, r.rctl = nil, nil

	r.gauge.sample()
	recovered, err := r.crashAndRecover()
	if err != nil {
		return err
	}
	r.gauge.sample()
	t.recovers = append(t.recovers, recovered)
	if round == serveRounds-1 {
		return r.stopAndWeigh()
	}
	r.notePeak("recovered")
	r.primary.Kill()
	r.primary = nil
	return os.RemoveAll(r.dataDir)
}

// countReads books one stretch of reads that took wall and returns its
// throughput (in an open loop: of the reads answered without a stall) and
// its median latency in milliseconds.
func (r *run) countReads(reads []load.Sample, wall time.Duration) (rate, median float64) {
	latencies := make([]float64, 0, len(reads))
	good := 0
	for _, s := range reads {
		err := s.Err
		if err == nil && r.sp.openRate > 0 && s.Latency > slowRead {
			err = fmt.Errorf("open-loop read answered %v after it was due", s.Latency)
		}
		if r.o.op(err) && (r.sp.openRate == 0 || s.Latency <= stalledRead) {
			good++
		}
		latencies = append(latencies, float64(s.Latency)/1e6)
	}
	r.o.reads = append(r.o.reads, reads...)
	if r.sp.openRate > 0 {
		r.e.logf("open loop: %d reads in %.2f s, %d unstalled, latency p10 %.2f p50 %.2f p90 %.2f max %.2f ms", len(reads), wall.Seconds(), good,
			stats.Percentile(latencies, 10), stats.Percentile(latencies, 50), stats.Percentile(latencies, 90), stats.Max(latencies))
	}
	return float64(good) / wall.Seconds(), stats.Median(latencies)
}

// attachReplica times a replica on a fresh directory from process start to
// serving the primary's snapshot, in seconds, and leaves it attached.
func (r *run) attachReplica(round int) (float64, error) {
	want, err := r.ctl.snapshot()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if r.replica, err = server.StartReplica(r.o.bin, filepath.Join(r.work, fmt.Sprintf("replica-%d", round)), r.primary.URL); err != nil {
		return 0, err
	}
	r.rctl = newAPI(r.replica.URL, 2)
	if err := awaitSeq(r.rctl, want, 30*time.Second); err != nil {
		return 0, err
	}
	took := time.Since(t0).Seconds()
	checkCounts(r.o, r.rctl, r.expect)
	return took, nil
}

// crashAndRecover kills the primary with the tail source still only in the
// WAL, restarts it on the same directory and times it, in seconds,
// until it is ready and answers with every acknowledged record.
func (r *run) crashAndRecover() (float64, error) {
	r.notePeak("serving")
	r.primary.Kill()
	t0 := time.Now()
	if err := r.startPrimary(server.CheckpointNever); err != nil {
		return 0, err
	}
	lost := checkCounts(r.o, r.ctl, r.expect)
	took := time.Since(t0).Seconds()
	r.o.op(boolErr(lost == 0, "kill -9 lost %d acknowledged records", lost))
	return took, nil
}

// stopAndWeigh stops the primary gracefully, which checkpoints everything;
// what is left on disk is the stored form of the uploaded bytes.
func (r *run) stopAndWeigh() error {
	r.notePeak("recovered")
	if err := r.primary.Stop(); err != nil {
		return fmt.Errorf("stopping the primary: %w", err)
	}
	r.primary = nil
	stored, err := server.DirBytes(r.dataDir)
	if err != nil {
		return err
	}
	r.o.metrics["stored_bytes_per_user_byte"] = float64(stored) / float64(r.userBytes)
	return nil
}

func boolErr(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// visiblePoll polls a point read of a file's first record and notes when
// it first answered with the generated description.
type visiblePoll struct {
	quit chan struct{}
	done chan struct{}
	took time.Duration
	ok   bool
}

func pollVisible(base string, f *corpus.File) *visiblePoll {
	v := &visiblePoll{quit: make(chan struct{}), done: make(chan struct{})}
	path := "/v1/objects/" + f.Source + "/" + url.PathEscape(f.Acc[0])
	t0 := time.Now()
	go func() {
		defer close(v.done)
		a := newAPI(base, 1)
		defer a.close()
		for last := false; !last; {
			select {
			case <-v.quit:
				last = true // one more look, then give up
			case <-time.After(pollEvery):
			}
			status, _, body, err := a.get(path)
			if err == nil && status == http.StatusOK && bytes.Contains(body, []byte(f.Desc[0])) {
				v.took, v.ok = time.Since(t0), true
				return
			}
		}
	}()
	return v
}

// stop ends the polling and reports how long the record took to appear.
// It may be called more than once.
func (v *visiblePoll) stop() (time.Duration, bool) {
	select {
	case <-v.quit:
	default:
		close(v.quit)
	}
	<-v.done
	return v.took, v.ok
}

// checkStructure compares what structure discovery reported for every
// loaded source with the generator's truth.
func checkStructure(o *outcome, a *api) {
	var res struct {
		Sources []struct{ Name, Primary, Accession string }
	}
	if !o.op(a.getJSON("/v1/sources", &res)) {
		return
	}
	got := map[string][2]string{}
	for _, s := range res.Sources {
		got[s.Name] = [2]string{s.Primary, s.Accession}
	}
	for _, f := range o.files {
		want := [2]string{f.Primary, f.AccessionColumn}
		o.op(boolErr(got[f.Source] == want, "source %s: discovered primary/accession %v, generated %v", f.Source, got[f.Source], want))
	}
}

// checkCounts verifies COUNT(*) of every table and returns how many rows
// are missing in total.
func checkCounts(o *outcome, a *api, expect map[string]int) (missing int) {
	tables := make([]string, 0, len(expect))
	for t := range expect {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		n, err := a.count(t)
		if o.op(err) {
			o.op(boolErr(n == expect[t], "COUNT(*) of %s is %d, want %d", t, n, expect[t]))
			missing += max(0, expect[t]-n)
		}
	}
	return missing
}

// checkPoints looks up seeded records of every loaded source by accession
// and compares the stored description with the generated one.
func checkPoints(o *outcome, a *api, files []*corpus.File, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < pointChecks; n++ {
		f := files[n%len(files)]
		i := rng.Intn(f.Records())
		sql := fmt.Sprintf("SELECT %s FROM %s_%s WHERE %s = '%s'", f.DescColumn, f.Source, f.Primary, f.AccessionColumn, f.Acc[i])
		res, err := a.query(sql)
		if !o.op(err) {
			continue
		}
		ok := len(res.Rows) == 1 && res.Rows[0][0] == f.Desc[i]
		o.op(boolErr(ok, "%s: got %v, want %q", sql, res.Rows, f.Desc[i]))
	}
}

// linkF1 scores the xref, sequence and duplicate links the pipeline found
// against the generator's gold, all types pooled. True positives are
// confirmed by browsing one endpoint of every gold link; the number found
// comes from the repository's per-type counts.
func linkF1(o *outcome, a *api, gold []corpus.Link) (float64, error) {
	if len(gold) == 0 {
		return 0, errors.New("workload has no gold links")
	}
	byProbe := map[corpus.Ref][]corpus.Link{}
	for _, l := range gold {
		byProbe[l.A] = append(byProbe[l.A], l)
	}
	type refJSON struct{ Source, Accession string }
	type linkJSON struct {
		Type     string
		From, To refJSON
	}
	tp := 0
	for probe, links := range byProbe {
		var view struct{ Linked, Duplicates []linkJSON }
		if !o.op(a.getJSON("/v1/objects/"+probe.Source+"/"+url.PathEscape(probe.Accession), &view)) {
			continue
		}
		found := map[corpus.Link]bool{}
		for _, l := range append(view.Linked, view.Duplicates...) {
			found[corpus.NewLink(l.Type, corpus.Ref(l.From), corpus.Ref(l.To))] = true
		}
		for _, l := range links {
			if found[l] {
				tp++
			}
		}
	}
	var st struct {
		LinksByType map[string]int `json:"links_by_type"`
	}
	if err := a.getJSON("/v1/stats", &st); err != nil {
		return 0, err
	}
	found := st.LinksByType[corpus.XRef] + st.LinksByType[corpus.Sequence] + st.LinksByType[corpus.Duplicate]
	return f1(tp, found, len(gold)), nil
}

// f1 is the harmonic mean of precision (tp of found) and recall (tp of
// gold); 0 without a true positive.
func f1(tp, found, gold int) float64 {
	if tp == 0 {
		return 0
	}
	precision, recall := float64(tp)/float64(found), float64(tp)/float64(gold)
	return 2 * precision * recall / (precision + recall)
}

// awaitSeq waits until the server serves reads that include the mutation
// with sequence want. Snapshot IDs are compared by sequence only: the
// generation half counts local checkpoints, which a replica takes on its
// own schedule.
func awaitSeq(a *api, want string, limit time.Duration) error {
	wantSeq, ok := snapshotSeq(want)
	if !ok {
		return fmt.Errorf("malformed snapshot ID %q", want)
	}
	deadline := time.Now().Add(limit)
	got := ""
	for time.Now().Before(deadline) {
		var err error
		if got, err = a.snapshot(); err == nil {
			if seq, ok := snapshotSeq(got); ok && seq == wantSeq {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("replica still at snapshot %q after %v, primary at %q", got, limit, want)
}

// seqWatch polls a replica's snapshot header and notes when each mutation
// sequence first became visible there.
type seqWatch struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	seen []ack // increasing seq; at = first time a read observed it
}

func watchSeq(base string) *seqWatch {
	w := &seqWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		a := newAPI(base, 1)
		defer a.close()
		var last uint64
		for {
			select {
			case <-w.quit:
				return
			default:
			}
			if id, err := a.snapshot(); err == nil {
				if seq, ok := snapshotSeq(id); ok && seq > last {
					last = seq
					w.mu.Lock()
					w.seen = append(w.seen, ack{seq: seq, at: time.Now()})
					w.mu.Unlock()
				}
			}
			time.Sleep(pollEvery)
		}
	}()
	return w
}

func (w *seqWatch) stop() {
	close(w.quit)
	<-w.done
}

func (w *seqWatch) reached(seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seen) > 0 && w.seen[len(w.seen)-1].seq >= seq
}

// lags waits until the replica has shown the last acknowledged batch, then
// returns per batch the milliseconds from its acknowledgement by the
// primary to its visibility on the replica.
func (w *seqWatch) lags(acks []ack) ([]float64, error) {
	last := acks[len(acks)-1].seq
	deadline := time.Now().Add(30 * time.Second)
	for !w.reached(last) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w.stop()
	out := make([]float64, 0, len(acks))
	for _, a := range acks {
		i := sort.Search(len(w.seen), func(i int) bool { return w.seen[i].seq >= a.seq })
		if i == len(w.seen) {
			return nil, fmt.Errorf("replica never showed mutation %d", a.seq)
		}
		// A batch can show on the replica before the client has parsed
		// its progress line; that is a lag of zero, not a negative one.
		out = append(out, max(0, float64(w.seen[i].at.Sub(a.at))/1e6))
	}
	return out, nil
}

// tailFile generates the tail source of the serving rounds: short reads
// (20-39 bases), which the profiler does not type as sequences, so that
// streaming them in costs parsing, duplicate detection, indexing and
// commits but not a sequence comparison against everything loaded.
func (r *run) tailFile() *corpus.File {
	f, _ := corpus.FASTA(r.seed+1, "tail", 0, r.sp.tailBatches*scale(r.sp.tailBatch, r.k), 20, 0)
	return f
}
