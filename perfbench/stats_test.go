package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		level float64
		value float64
	}{
		{1000, 99, 990},
		{999, 95, 950},
		{100, 90, 90},
		{99, 75, 75},
		{40, 75, 30},
		{20, 50, 10},
		{19, 0, 0}, // even the median has only 9 samples beyond it
		{0, 0, 0},
	}
	for _, c := range cases {
		p := tail(seq(c.n))
		if p.Level != c.level || p.Value != c.value || p.N != c.n {
			t.Errorf("tail of %d samples = %+v, want p%v = %v", c.n, p, c.level, c.value)
		}
		if p.Level > 0 && p.N-rankOf(p.Level, p.N) < minBeyond {
			t.Errorf("tail of %d samples: p%v leaves fewer than %d beyond", c.n, p.Level, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ level, want float64 }{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {100, 5}} {
		if got := percentile(xs, c.level).Value; got != c.want {
			t.Errorf("p%v = %v, want %v", c.level, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 2}, 2}, {[]float64{4, 1, 2, 3}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "job", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "job", Start: 3, End: 6},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "job", Start: 9, End: 12}, // runs past its parent
		{ID: 5, Parent: 2, Name: "exec", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 1, 2: 3 - 1, 3: 3, 4: 3, 5: 1}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.start("x", "op", 0)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatalf("nil recorder returned id %d, spans %v", id, r.snapshot())
	}
}
