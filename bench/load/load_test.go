package load

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stalled request must be charged to the requests queued behind it:
// with one connection at 200 req/s, a 60 ms stall in request 0 makes
// request 1 (due at 5 ms, served instantly) take about 55 ms.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	samples := Open(1, 200, 100*time.Millisecond, nil, func(int) (string, error) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		return "x", nil
	})
	if len(samples) != 20 {
		t.Fatalf("got %d samples, want 20 (rate x duration)", len(samples))
	}
	if got := samples[1].Latency; got < 50*time.Millisecond {
		t.Errorf("request behind the stall took %v; want >= 50ms counted from its due time", got)
	}
	if got := samples[1].Late; got < 50*time.Millisecond {
		t.Errorf("request behind the stall was sent %v late; want >= 50ms", got)
	}
	// Once the queue drains, requests are on time again.
	if got := samples[19].Late; got > 20*time.Millisecond {
		t.Errorf("last request sent %v late; the backlog should have drained", got)
	}
	stop := make(chan struct{})
	close(stop)
	if got := Open(2, 1000, time.Second, stop, func(int) (string, error) { return "x", nil }); len(got) > 2 {
		t.Errorf("a stopped open loop still sent %d requests", len(got))
	}
	if Due(200, 19) != 95*time.Millisecond {
		t.Errorf("Due(200, 19) = %v, want 95ms", Due(200, 19))
	}
}

func TestClosedLoopRunsEveryClientForItsCount(t *testing.T) {
	var perWorker [2]atomic.Int64
	samples := Closed(2, 5, func(w int) (string, error) {
		perWorker[w].Add(1)
		time.Sleep(2 * time.Millisecond)
		return "y", nil
	})
	if len(samples) != 10 {
		t.Errorf("got %d samples from 2 clients x 5 operations", len(samples))
	}
	for w := range perWorker {
		if perWorker[w].Load() != 5 {
			t.Errorf("client %d ran %d operations, want 5", w, perWorker[w].Load())
		}
	}
	for _, s := range samples {
		if s.Latency < 2*time.Millisecond {
			t.Fatalf("latency %v shorter than the operation", s.Latency)
		}
	}
}
