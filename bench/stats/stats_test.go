package stats

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {100, 5}, {1, 1}, {80, 4}, {81, 5}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
	if Min(v) != 1 || Max(v) != 5 || Median(v) != 3 {
		t.Errorf("Min, Median, Max = %v, %v, %v", Min(v), Median(v), Max(v))
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty sample should report 0")
	}
}

// A percentile may be reported only with ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true}} {
		if got := Supports(c.n, c.p); got != c.want {
			t.Errorf("Supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
