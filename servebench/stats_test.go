package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the function must sort
	}
	return xs
}

// A p90 is reported only with at least ten samples beyond it: 100
// samples is the smallest list that has one.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := tailPercentile(ramp(99), 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be reported")
	}
	v, ok := tailPercentile(ramp(100), 90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	v, ok = tailPercentile(ramp(104), 90)
	if !ok || v != 94 {
		t.Errorf("p90 of 1..104 = %v, %v; want rank ceil(93.6) = 94, true", v, ok)
	}
	if _, ok := tailPercentile(nil, 90); ok {
		t.Error("p90 of no samples must not be reported")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which judges the spread of repeated runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8.0}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 50 * ms}, // overlaps a by 10
		{ID: 3, Parent: 1, Name: "a1", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{60 * time.Millisecond, 25 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}
