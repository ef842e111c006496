package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Fatalf("summary: %s", s)
	}
	if math.Abs(s.stddev()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev %v", s.stddev())
	}
	if s.MaxAbs() != 5 {
		t.Fatalf("maxabs %v", s.MaxAbs())
	}
	if s.Quantile(0.5) != 3 {
		t.Fatalf("median %v", s.Quantile(0.5))
	}
}

// TestSummaryQuantileNearestRank is the regression test for the index
// truncation bug: int(q*(len-1)) floors, so p99 of a small reservoir
// could never reach the top sample.
func TestSummaryQuantileNearestRank(t *testing.T) {
	s := NewSummary(0)
	for v := 1; v <= 10; v++ {
		s.Add(float64(v))
	}
	if got := s.Quantile(0.99); got != 10 {
		t.Fatalf("p99 of 1..10 = %v, want 10 (nearest rank)", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	// round(0.33*9) = 3 -> 4th value.
	if got := s.Quantile(0.33); got != 4 {
		t.Fatalf("p33 = %v, want 4", got)
	}
}

func TestSummaryMaxAbsNegative(t *testing.T) {
	s := NewSummary(0)
	s.Add(-10)
	s.Add(3)
	if s.MaxAbs() != 10 {
		t.Fatalf("maxabs %v", s.MaxAbs())
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary(0)
	if s.MaxAbs() != 0 || s.N() != 0 {
		t.Fatal("empty summary not neutral")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
	if s.String() != "n=0" {
		t.Fatal("empty string repr")
	}
}

func TestSummaryReservoirBounded(t *testing.T) {
	s := NewSummary(64)
	for i := 0; i < 10000; i++ {
		s.Add(float64(i))
	}
	if len(s.reservoir) != 64 {
		t.Fatalf("reservoir grew to %d", len(s.reservoir))
	}
	if s.N() != 10000 {
		t.Fatal("count wrong")
	}
	// A window, not a sample: the 64 values kept are the last 64 added.
	if lo, hi := s.Quantile(0), s.Quantile(1); lo != 10000-64 || hi != 9999 {
		t.Fatalf("window spans [%v, %v], want the last 64 values [9936, 9999]", lo, hi)
	}
}

// QuantileAbs is max(|Q(q)|, |Q(1-q)|), which for q >= 1/2 is
// max(Q(q), -Q(1-q)) whatever the signs.
func TestSummaryQuantileAbs(t *testing.T) {
	for _, vs := range [][]float64{{-9, -1, 0, 1, 2}, {3, 4, 5, 6, 9}, {-9, -6, -5, -4, -3}} {
		s := NewSummary(0)
		for _, v := range vs {
			s.Add(v)
		}
		if got := s.QuantileAbs(0.99); got != 9 {
			t.Fatalf("QuantileAbs(0.99) of %v = %v, want 9", vs, got)
		}
	}
}

// Property: mean and min/max match a direct computation.
func TestSummaryMomentsProperty(t *testing.T) {
	f := func(vs []float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		if len(vs) == 0 {
			return true
		}
		s := NewSummary(0)
		min, max, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range vs {
			s.Add(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		mean := sum / float64(len(vs))
		return s.Min() == min && s.Max() == max && math.Abs(s.Mean()-mean) < 1e-6*(1+math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntHistPDF(t *testing.T) {
	h := NewIntHist()
	for i := 0; i < 3; i++ {
		h.Add(0)
	}
	h.Add(2)
	values, probs := h.PDF()
	if len(values) != 3 || values[0] != 0 || values[2] != 2 {
		t.Fatalf("values %v", values)
	}
	if probs[0] != 0.75 || probs[1] != 0 || probs[2] != 0.25 {
		t.Fatalf("probs %v", probs)
	}
	if h.Total() != 4 || h.counts[0] != 3 {
		t.Fatal("counts")
	}
	lo, hi := h.Range()
	if lo != 0 || hi != 2 {
		t.Fatal("range")
	}
	if !strings.Contains(h.String(), "0:0.7500") {
		t.Fatalf("string: %s", h.String())
	}
}

func TestIntHistEmpty(t *testing.T) {
	h := NewIntHist()
	v, p := h.PDF()
	if v != nil || p != nil {
		t.Fatal("empty PDF should be nil")
	}
}

func TestSeriesDecimation(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 5*seriesCap; i++ {
		s.Add(float64(i), float64(i)*2)
	}
	if len(s.T) > seriesCap {
		t.Fatalf("series grew to %d", len(s.T))
	}
	// Shape preserved: times strictly increasing, values consistent.
	for i := 1; i < len(s.T); i++ {
		if s.T[i] <= s.T[i-1] {
			t.Fatal("times not increasing after decimation")
		}
		if s.V[i] != s.T[i]*2 {
			t.Fatal("values decoupled from times")
		}
	}
	var b strings.Builder
	s.WriteTSV(&b)
	if len(strings.Split(strings.TrimSpace(b.String()), "\n")) != len(s.T) {
		t.Fatal("TSV line count mismatch")
	}
}

func TestMovingAverage(t *testing.T) {
	v := []float64{0, 10, 0, 10, 0, 10}
	sm := MovingAverage(v, 2)
	want := []float64{0, 5, 5, 5, 5, 5}
	for i := range want {
		if sm[i] != want[i] {
			t.Fatalf("ma[%d] = %v, want %v", i, sm[i], want[i])
		}
	}
	id := MovingAverage(v, 1)
	for i := range v {
		if id[i] != v[i] {
			t.Fatal("window 1 should be identity")
		}
	}
}

func TestMovingAverageWindow10ShrinksSpikes(t *testing.T) {
	// The Figure 7b property: a ±16 spike train smooths to within ±4
	// with window 10 when spikes are sparse.
	v := make([]float64, 100)
	for i := range v {
		if i%25 == 0 {
			v[i] = 16
		}
	}
	sm := MovingAverage(v, 10)
	for i := 10; i < len(sm); i++ {
		if math.Abs(sm[i]) > 4 {
			t.Fatalf("smoothed spike %v at %d", sm[i], i)
		}
	}
}
