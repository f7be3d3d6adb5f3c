package main

import (
	"time"

	"repro/bench/stats"
)

// The sandbox's CPU is a hardware thread whose sibling belongs to someone
// else. While the sibling is busy, code that keeps the core's execution
// units full runs at a little over half speed; a chain of dependent
// multiplications, which leaves them idle, does not slow down at all, and
// neither does anything else a guest can look at (CPU time equals wall
// time, no steal is accounted). The sibling's load comes in bursts of
// milliseconds whose density drifts over minutes between almost none and
// most of the time, and every timing of seconds of real work drifts with
// it by up to a factor of 1.8 (README.md, "Sandbox caveats").
//
// A gauge estimates that density: it times many short bursts of
// independent register arithmetic, which the sibling slows as it slows real
// work, and compares their typical duration with the quickest burst ever
// seen, which ran beside an idle sibling. The timings of a phase are
// divided by the phase's factor, i.e. reported as what they would have been
// on an undisturbed CPU.
type gauge struct {
	means []float64 // per sample: mean burst duration in microseconds
}

const (
	gaugeBursts    = 40      // per sample; 12 ms undisturbed
	gaugeBurstSize = 200_000 // loop iterations per burst; 0.3 ms undisturbed
)

// quickestBurst is the shortest burst any gauge has timed, in microseconds:
// the speed of the CPU when it is not shared.
var quickestBurst float64

var gaugeSink uint64

// sample times gaugeBursts bursts. It must not run beside work that is
// being timed: pinned to the same CPU, it would take that work's time.
func (g *gauge) sample() {
	sum := 0.0
	for i := 0; i < gaugeBursts; i++ {
		t0 := time.Now()
		var a, b, c, d, e, f uint64 = 1, 2, 3, 4, 5, 6
		for j := 0; j < gaugeBurstSize; j++ {
			a = a*3 + 1
			b = b*5 + 1
			c = c*7 + 1
			d = d ^ (d << 1) + 3
			e = e + (e >> 3) + 5
			f = f*9 + 1
		}
		gaugeSink += a + b + c + d + e + f
		us := float64(time.Since(t0)) / 1e3
		sum += us
		if quickestBurst == 0 || us < quickestBurst {
			quickestBurst = us
		}
	}
	g.means = append(g.means, sum/gaugeBursts)
}

// factor is by how much the phase's timings are longer than they would
// have been on an undisturbed CPU: at least 1.
func (g *gauge) factor() float64 {
	if len(g.means) == 0 {
		return 1
	}
	return max(1, stats.Median(g.means)/quickestBurst)
}
