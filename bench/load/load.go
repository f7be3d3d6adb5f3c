// Package load drives the benchmark's request loops. A closed loop sends a
// client's next request only when the previous one completes, so a slow
// server receives less load; an open loop sends on a fixed schedule
// whatever the server does, and times each request from the moment it was
// due, so a stall is charged to every request it delayed.
package load

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one completed operation.
type Sample struct {
	Class string
	// Latency runs from send (closed loop) or from the due time (open
	// loop) to the last response byte.
	Latency time.Duration
	// Late is how long after its due time an open-loop request was sent.
	Late time.Duration
	// Done is when the response had been read.
	Done time.Time
	Err  error
}

// Op performs one operation on behalf of a worker and names its class.
// Workers never share an Op call, so per-worker state needs no lock.
type Op func(worker int) (class string, err error)

// Closed runs clients workers back to back, n operations each, and
// returns every operation. A stretch of a closed loop is a fixed amount of
// work, not a fixed time, so that two stretches can be compared.
func Closed(clients, n int, op Op) []Sample {
	per := make([][]Sample, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w] = make([]Sample, 0, n)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				class, err := op(w)
				done := time.Now()
				per[w] = append(per[w], Sample{Class: class, Latency: done.Sub(t0), Done: done, Err: err})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// Due is when request i of an open loop at rate requests per second is
// scheduled, counted from the loop's start.
func Due(rate float64, i int) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// Open sends rate requests per second over at most conns connections
// until limit has passed or stop is closed (a nil stop never closes).
// Requests go out in schedule order; when every connection is busy the
// next request waits, and that wait is part of its latency.
func Open(conns int, rate float64, limit time.Duration, stop <-chan struct{}, op Op) []Sample {
	n := int(rate * limit.Seconds())
	per := make([][]Sample, conns)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(Due(rate, i))
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)):
				}
				sent := time.Now()
				class, err := op(w)
				done := time.Now()
				per[w] = append(per[w], Sample{Class: class, Latency: done.Sub(due), Late: sent.Sub(due), Done: done, Err: err})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]Sample) []Sample {
	var all []Sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}
