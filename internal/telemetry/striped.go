package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// StripedHistogram is a lock-free histogram built for writer rates where
// even an uncontended atomic add per observation is too expensive — the
// tens of millions of reads/sec the snapshot fast path in
// internal/timesvc serves on one core. Three ideas keep
// the record path near-free:
//
//   - Power-of-two exponential buckets: the bucket index is one
//     bits.Len64, not a linear scan over bounds.
//   - Shard-per-writer: each writer claims its own stripe of counters,
//     so concurrent writers never contend on a cache line.
//   - Batched flush: a StripeWriter accumulates into plain (non-atomic)
//     local counters and folds them into its stripe with a handful of
//     atomic adds every flushEvery records, so the steady-state Observe
//     is an array increment and a float add — zero allocations, zero
//     atomics.
//
// Scrapers merge all stripes on read (Snapshot). A scrape that races a
// flush may see count and sum from different instants — each word is
// individually consistent (no torn float64s), the cross-word skew is at
// most one unflushed batch per writer, and calling Flush on every
// writer first makes the snapshot exact (what the deterministic export
// paths do).
//
// Bucket i (0-based) has upper bound unit·2^i; values above the last
// finite bound land in an implicit overflow bucket. A nil
// StripedHistogram is a valid no-op, like every other metric handle.
type StripedHistogram struct {
	unit     float64 // upper bound of bucket 0
	unitExp  int     // biased float64 exponent of unit
	unitMant uint64  // mantissa bits of unit
	nb       int     // finite buckets; index nb is the overflow bucket
	stripes  []hstripe
	claimed  atomic.Uint32

	mu      sync.Mutex
	writers []*StripeWriter // every writer ever issued, for FlushAll
}

// maxStripedBuckets bounds the finite bucket count so stripes can embed
// their counters inline (keeping each stripe on its own cache lines
// instead of sharing a backing array).
const maxStripedBuckets = 48

// hstripe is one writer shard. The leading and trailing pads keep
// adjacent stripes off each other's cache lines.
type hstripe struct {
	_       [8]uint64
	buckets [maxStripedBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	_       [6]uint64
}

// NewStripedHistogram builds a histogram with `buckets` finite
// power-of-two buckets starting at upper bound `unit` (unit, 2·unit,
// 4·unit, …) and `stripes` writer shards. The arguments stay parameters:
// the benchmark's telemetry probe builds its own. Out-of-range arguments are
// clamped to sane values rather than rejected, matching the
// never-panic-in-instrumentation policy of the rest of the package.
func NewStripedHistogram(unit float64, buckets, stripes int) *StripedHistogram {
	if unit <= 0 {
		unit = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	if buckets > maxStripedBuckets {
		buckets = maxStripedBuckets
	}
	if stripes < 1 {
		stripes = 1
	}
	ub := math.Float64bits(unit)
	return &StripedHistogram{
		unit:     unit,
		unitExp:  int(ub >> 52 & 0x7ff),
		unitMant: ub & stripedMantMask,
		nb:       buckets,
		stripes:  make([]hstripe, stripes),
	}
}

// stripedMantMask extracts a float64's 52 mantissa bits.
const stripedMantMask = 1<<52 - 1

// StripedHistogram registers (or finds) a striped histogram in the
// registry. Like Histogram, re-registration reuses the first shape;
// nil-safe.
func (r *Registry) StripedHistogram(name, help string, unit float64, buckets, stripes int, labels ...string) *StripedHistogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", labels, func() metric {
		return NewStripedHistogram(unit, buckets, stripes)
	}).(*StripedHistogram)
}

// index maps a value to its bucket: the smallest i with v <= unit·2^i,
// clamped to the overflow bucket. NaN and non-positive values land in
// bucket 0. Classification is pure bit arithmetic against the unit's
// precomputed exponent and mantissa — no divide, no Ceil — because
// Observe sits on 10M+/sec read paths: with v = 2^ev·(1+fv) and
// unit = 2^eu·(1+fu), v/unit is exactly 2^(ev-eu) when fv = fu, in
// (2^(ev-eu), 2^(ev-eu+1)) when fv > fu, and in (2^(ev-eu-1), 2^(ev-eu))
// when fv < fu — so the bucket is ev-eu, bumped by one when fv > fu.
// Unlike dividing first, this never rounds across a bucket boundary.
func (h *StripedHistogram) index(v float64) int {
	if !(v > h.unit) {
		return 0
	}
	bv := math.Float64bits(v)
	i := int(bv>>52&0x7ff) - h.unitExp
	if bv&stripedMantMask > h.unitMant {
		i++
	}
	if i > h.nb {
		i = h.nb
	}
	return i
}

// UpperBounds returns the finite bucket upper bounds.
func (h *StripedHistogram) UpperBounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, h.nb)
	v := h.unit
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// Writer claims a stripe and returns a new single-goroutine writer
// handle. Writers beyond the stripe count share stripes round-robin
// (still correct — stripe counters are atomic — just with some cache
// contention). Nil-safe: a nil histogram yields a nil writer whose
// methods are no-ops.
func (h *StripedHistogram) Writer() *StripeWriter {
	if h == nil {
		return nil
	}
	idx := int(h.claimed.Add(1)-1) % len(h.stripes)
	w := &StripeWriter{
		h: h, s: &h.stripes[idx],
		unit: h.unit, unitExp: int32(h.unitExp), unitMant: h.unitMant,
		nb:         int32(h.nb),
		flushEvery: defaultFlushEvery,
	}
	h.mu.Lock()
	h.writers = append(h.writers, w)
	h.mu.Unlock()
	return w
}

// FlushAll folds every writer's pending local counts into the shared
// stripes. Only safe when the writers' owning goroutines are quiescent
// (e.g. after a hammer phase has joined, or on the simulation goroutine
// that owns all writers); the deterministic export paths call it before
// scraping.
func (h *StripedHistogram) FlushAll() {
	if h == nil {
		return
	}
	h.mu.Lock()
	ws := append([]*StripeWriter(nil), h.writers...)
	h.mu.Unlock()
	for _, w := range ws {
		w.Flush()
	}
}

// defaultFlushEvery is how many records a StripeWriter accumulates
// before folding them into its stripe. 256 keeps the amortized atomic
// cost below one op per ~50 records while bounding scrape lag.
const defaultFlushEvery = 256

// StripeWriter is one goroutine's recording handle. Observe and Flush
// must only be called by the owning goroutine; the shared histogram may
// be scraped concurrently.
type StripeWriter struct {
	h *StripedHistogram
	s *hstripe

	// Classification fields copied from the histogram at Writer() time:
	// Observe runs tens of millions of times a second, and reading them
	// here instead of through w.h drops a dependent load from the hot
	// path.
	unit     float64
	unitExp  int32
	unitMant uint64
	nb       int32

	flushEvery uint32
	pending    uint32 // records since last flush
	sum        float64
	// One slot past maxStripedBuckets would do; 64 lets Observe mask the
	// index (i & 63) so the compiler drops the bounds check.
	local [64]uint32
}

// Observe records one sample: an array increment, a float add, and an
// amortized flush. Zero allocations (pinned by TestStripeWriterAllocs).
// The bucket math is index() inlined against the writer-local copies of
// the histogram's classification fields.
func (w *StripeWriter) Observe(v float64) {
	if w == nil {
		return
	}
	i := 0
	if v > w.unit {
		bv := math.Float64bits(v)
		i = int(bv>>52&0x7ff) - int(w.unitExp)
		if bv&stripedMantMask > w.unitMant {
			i++
		}
		if i > int(w.nb) {
			i = int(w.nb)
		}
	}
	w.local[i&63]++
	w.sum += v
	w.pending++
	if w.pending >= w.flushEvery {
		w.Flush()
	}
}

// Flush folds the pending local counts into the shared stripe.
func (w *StripeWriter) Flush() {
	if w == nil || w.pending == 0 {
		return
	}
	for i := 0; i <= w.h.nb; i++ {
		if d := w.local[i]; d != 0 {
			w.s.buckets[i].Add(uint64(d))
			w.local[i] = 0
		}
	}
	w.s.count.Add(uint64(w.pending))
	atomicAddFloat(&w.s.sumBits, w.sum)
	w.pending = 0
	w.sum = 0
}

// HistogramSnapshot is a merged, plain-value view of a StripedHistogram
// at one scrape.
type HistogramSnapshot struct {
	Upper   []float64 // finite upper bounds, ascending
	Buckets []uint64  // len(Upper)+1; the last is the overflow bucket
	Count   uint64
	Sum     float64
}

// Snapshot merges every stripe into one consistent-enough view (see the
// type comment for the racing-flush caveat).
func (h *StripedHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Upper:   h.UpperBounds(),
		Buckets: make([]uint64, h.nb+1),
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := 0; b <= h.nb; b++ {
			s.Buckets[b] += st.buckets[b].Load()
		}
		s.Count += st.count.Load()
		s.Sum += math.Float64frombits(st.sumBits.Load())
	}
	return s
}

// Count returns the merged observation count.
func (h *StripedHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// Mean returns the mean observation (NaN when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the crossing bucket. The overflow bucket reports its lower
// bound (a deliberate under-estimate: the histogram has no upper
// evidence there). NaN when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		cum += float64(n)
		if cum < rank {
			continue
		}
		if i >= len(s.Upper) { // overflow bucket
			return s.Upper[len(s.Upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Upper[i-1]
		}
		hi := s.Upper[i]
		if n == 0 {
			return lo
		}
		frac := (rank - (cum - float64(n))) / float64(n)
		return lo + frac*(hi-lo)
	}
	return s.Upper[len(s.Upper)-1]
}

// writeExposition renders the merged view in the same shape as a plain
// Histogram (cumulative le buckets, _sum, _count).
func (h *StripedHistogram) writeExposition(b *strings.Builder, name, labels string) {
	s := h.Snapshot()
	var cum uint64
	for i, up := range s.Upper {
		cum += s.Buckets[i]
		writeSample(b, name+"_bucket", joinLabels(labels, `le="`+formatFloat(up)+`"`), float64(cum))
	}
	cum += s.Buckets[len(s.Upper)]
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(b, name+"_sum", labels, s.Sum)
	writeSample(b, name+"_count", labels, float64(s.Count))
}
