// Package stats provides the measurement plumbing the experiment
// harness uses: streaming summaries, integer histograms (offset-in-ticks
// PDFs, Figure 6c), and time series with bounded memory.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates streaming min/max/mean/variance over every value
// added, plus quantiles over a window of the most recent values: N, Min,
// Max, MaxAbs, Mean and stddev describe the whole stream, Quantile and
// QuantileAbs only the window.
type Summary struct {
	n          uint64
	min, max   float64
	mean, m2   float64
	reservoir  []float64
	maxSamples int
	seen       uint64
}

// NewSummary creates a summary whose quantiles cover the last
// maxSamples values added (0 means 4096). Every non-test caller takes
// the default; the parameter stays until the window-or-sample decision
// (whole-run quantiles against a documented window) is made, since
// either answer moves campaign output.
func NewSummary(maxSamples int) *Summary {
	if maxSamples <= 0 {
		maxSamples = 4096
	}
	return &Summary{min: math.Inf(1), max: math.Inf(-1), maxSamples: maxSamples}
}

// Add records a value.
func (s *Summary) Add(v float64) {
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)

	// A ring, not a random sample: once full, each value overwrites slot
	// (seen mod cap), so the window holds the last maxSamples values.
	// (Until 2·maxSamples values have been added, slot 0 still holds the
	// first value in place of the oldest of them.)
	s.seen++
	if len(s.reservoir) < s.maxSamples {
		s.reservoir = append(s.reservoir, v)
	} else {
		s.reservoir[s.seen%uint64(s.maxSamples)] = v
	}
}

// N returns the number of samples.
func (s *Summary) N() uint64 { return s.n }

// Min returns the smallest sample (+Inf when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (-Inf when empty).
func (s *Summary) Max() float64 { return s.max }

// MaxAbs returns max(|min|, |max|), the worst-case magnitude.
func (s *Summary) MaxAbs() float64 {
	if s.n == 0 {
		return 0
	}
	return math.Max(math.Abs(s.min), math.Abs(s.max))
}

// Mean returns the arithmetic mean.
func (s *Summary) Mean() float64 { return s.mean }

// stddev returns the sample standard deviation.
func (s *Summary) stddev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Quantile returns the q-th quantile (0..1) of the window, using
// nearest-rank rounding. (Flooring the fractional rank — the previous
// behavior — systematically underestimates upper quantiles on small
// reservoirs: p99 of ten samples floored to the 9th value, never the
// max.)
func (s *Summary) Quantile(q float64) float64 {
	if len(s.reservoir) == 0 {
		return math.NaN()
	}
	tmp := make([]float64, len(s.reservoir))
	copy(tmp, s.reservoir)
	sort.Float64s(tmp)
	idx := int(math.Round(q * float64(len(tmp)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// QuantileAbs returns the quantile of |sample| magnitude assuming a
// roughly symmetric distribution: max(Q(q), -Q(1-q)). Convenient for
// "p99 of |offset|" reporting.
func (s *Summary) QuantileAbs(q float64) float64 {
	return math.Max(math.Abs(s.Quantile(q)), math.Abs(s.Quantile(1-q)))
}

// String renders a one-line report.
func (s *Summary) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g p99=%.4g max=%.4g mean=%.4g sd=%.4g",
		s.n, s.min, s.Quantile(0.5), s.Quantile(0.99), s.max, s.mean, s.stddev())
}

// IntHist is a histogram over small integers (offsets in ticks).
type IntHist struct {
	counts map[int64]uint64
	total  uint64
}

// NewIntHist creates an empty histogram.
func NewIntHist() *IntHist {
	return &IntHist{counts: map[int64]uint64{}}
}

// Add records a value.
func (h *IntHist) Add(v int64) {
	h.counts[v]++
	h.total++
}

// Total returns the sample count.
func (h *IntHist) Total() uint64 { return h.total }

// count returns the count at a value.
func (h *IntHist) count(v int64) uint64 { return h.counts[v] }

// Range returns the smallest and largest recorded values.
func (h *IntHist) Range() (lo, hi int64) {
	first := true
	for v := range h.counts {
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi
}

// PDF returns the normalized distribution over [lo, hi] — the format of
// Figure 6c.
func (h *IntHist) PDF() (values []int64, probs []float64) {
	if h.total == 0 {
		return nil, nil
	}
	lo, hi := h.Range()
	for v := lo; v <= hi; v++ {
		values = append(values, v)
		probs = append(probs, float64(h.counts[v])/float64(h.total))
	}
	return values, probs
}

// String renders "v:prob" pairs.
func (h *IntHist) String() string {
	values, probs := h.PDF()
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.4f", v, probs[i])
	}
	return b.String()
}

// Series is a bounded time series: it keeps every point until cap, then
// decimates by dropping every other retained point and doubling the
// keep-stride — preserving overall shape for long runs.
type Series struct {
	T      []float64 // seconds
	V      []float64
	cap    int
	stride int
	skip   int
}

// NewSeries creates a series bounded to maxPoints (0 means 100k).
func NewSeries(maxPoints int) *Series {
	if maxPoints <= 0 {
		maxPoints = 100_000
	}
	return &Series{cap: maxPoints, stride: 1}
}

// Add appends a point, decimating when full.
func (s *Series) Add(tSec, v float64) {
	s.skip++
	if s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.T) >= s.cap {
		keepT := make([]float64, 0, s.cap/2+1)
		keepV := make([]float64, 0, s.cap/2+1)
		for i := 0; i < len(s.T); i += 2 {
			keepT = append(keepT, s.T[i])
			keepV = append(keepV, s.V[i])
		}
		s.T, s.V = keepT, keepV
		s.stride *= 2
	}
	s.T = append(s.T, tSec)
	s.V = append(s.V, v)
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.T) }

// WriteTSV renders "time\tvalue" lines into sb.
func (s *Series) WriteTSV(sb *strings.Builder) {
	for i := range s.T {
		fmt.Fprintf(sb, "%.9f\t%.6g\n", s.T[i], s.V[i])
	}
}

// MovingAverage returns a smoothed copy using a trailing window of n
// points — the daemon smoothing of Figure 7b.
func MovingAverage(v []float64, n int) []float64 {
	if n <= 1 {
		out := make([]float64, len(v))
		copy(out, v)
		return out
	}
	out := make([]float64, len(v))
	var sum float64
	for i := range v {
		sum += v[i]
		if i >= n {
			sum -= v[i-n]
		}
		w := i + 1
		if w > n {
			w = n
		}
		out[i] = sum / float64(w)
	}
	return out
}
