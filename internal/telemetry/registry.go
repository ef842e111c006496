// Package telemetry is the always-on observability layer: a metrics
// Registry of atomic counters, gauges, and fixed-bucket histograms
// built to stay enabled inside the per-tick PHY/port hot path,
// a bounded ring-buffer Tracer of typed protocol events stamped with
// simulated time, and exporters (Prometheus text exposition, JSONL
// trace dump, an HTTP handler serving both).
//
// Two properties shape the design:
//
//   - Nil-safety. Every metric handle and the Tracer are no-ops on a
//     nil receiver, so instrumented code paths need no branches: an
//     un-instrumented Network carries nil handles and pays only a
//     predicted-not-taken nil check per update (benchmarked at ~0%).
//
//   - Race-freedom by construction. All metric updates are single
//     atomic operations, and the Tracer takes a short mutex only after
//     an atomic kind-mask check, so a simulation goroutine can be
//     scraped concurrently by an HTTP exporter without a data race.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. All methods are safe for
// concurrent use; registration is idempotent (the same name+labels
// returns the same handle).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name, help, typ string
	series          map[string]metric // keyed by rendered label string
}

// metric is anything the Prometheus exporter can render.
type metric interface {
	writeExposition(b *strings.Builder, name, labels string)
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders "k1=\"v1\",k2=\"v2\"" from alternating key/value
// pairs, sorted by key so registration order never changes the export.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be alternating key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// lookup finds or creates a family+series slot; make builds the metric
// on first registration.
func (r *Registry) lookup(name, help, typ string, labels []string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]metric{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	ls := labelString(labels)
	m, ok := f.series[ls]
	if !ok {
		m = make()
		f.series[ls] = m
	}
	return m
}

// Counter registers (or finds) a monotone counter. Returns nil on a nil
// Registry; all Counter methods are nil-safe no-ops.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a scrape-time counter: fn is invoked at each
// export to produce the value, so state that already maintains its own
// count (the Tracer's drop tally) exports without double bookkeeping.
// Re-registration keeps the first fn. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, "counter", labels, func() metric { return &funcCounter{fn: fn} })
}

// funcCounter renders fn() at scrape time.
type funcCounter struct {
	fn func() uint64
}

func (c *funcCounter) writeExposition(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, float64(c.fn()))
}

// Gauge registers (or finds) a float gauge. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "gauge", labels, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or finds) a fixed-bucket histogram. The buckets
// are upper bounds in ascending order (+Inf is implicit). Nil-safe.
// Re-registration reuses the first set of buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", labels, func() metric {
		return newHistogram(buckets)
	}).(*Histogram)
}

// --- Counter ----------------------------------------------------------

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) writeExposition(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, float64(c.Value()))
}

// --- Gauge ------------------------------------------------------------

// Gauge is a float64 that can go up and down (stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	atomicAddFloat(&g.bits, d)
}

// SetMax raises the gauge to v if v is larger (high-water mark).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	atomicFoldMax(&g.bits, v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) writeExposition(b *strings.Builder, name, labels string) {
	writeSample(b, name, labels, g.Value())
}

// --- Histogram --------------------------------------------------------

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; a final +Inf bucket is implicit) and tracks count, sum,
// min, and max. Observe is one atomic add plus finding the bucket:
// computed for evenly spaced bounds (LinearBuckets), else a short
// linear scan over the bounds — cheap enough for per-beacon hot paths.
type Histogram struct {
	upper []float64
	// invWidth is 1/spacing when the bounds are exactly upper[0] +
	// i·spacing, so bucketIndex computes the index; 0 otherwise.
	invWidth float64
	buckets  []atomic.Uint64 // len(upper)+1; last is +Inf
	count    atomic.Uint64
	sumBits  atomic.Uint64
	minBits  atomic.Uint64 // +Inf until first Observe
	maxBits  atomic.Uint64 // -Inf until first Observe
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram buckets must be strictly ascending")
		}
	}
	h := &Histogram{
		upper:   append([]float64(nil), buckets...),
		buckets: make([]atomic.Uint64, len(buckets)+1),
	}
	if n := len(buckets); n > 2 {
		width := buckets[1] - buckets[0]
		linear := !math.IsInf(width, 0)
		for i := 2; i < n && linear; i++ {
			linear = buckets[i] == buckets[0]+float64(i)*width
		}
		if linear {
			h.invWidth = 1 / width
		}
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns n upper bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// bucketIndex returns the bucket holding v: the first whose upper bound
// is at least v, or the last, +Inf bucket when v exceeds every bound
// (NaN exceeds none: bucket 0). Evenly spaced bounds compute it: the
// truncated quotient is the bound at or below v, and the loops step past
// it, correcting any rounding against the bounds themselves, so the
// answer is the scan's exactly.
func (h *Histogram) bucketIndex(v float64) int {
	n := len(h.upper)
	if h.invWidth == 0 {
		return h.scanIndex(v)
	}
	if !(v > h.upper[0]) {
		return 0
	}
	if v > h.upper[n-1] {
		return n
	}
	// upper[0] < v <= upper[n-1]: the index is in [1, n-1].
	i := min(int((v-h.upper[0])*h.invWidth), n-1)
	for i > 0 && v <= h.upper[i-1] {
		i--
	}
	for v > h.upper[i] {
		i++
	}
	return i
}

// scanIndex is bucketIndex by a linear scan over the bounds.
func (h *Histogram) scanIndex(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// atomicAddFloat, atomicFoldMin, and atomicFoldMax fold a value into a
// float64 stored as atomic bits. Min/max load first, so the common
// steady-state case is one plain load.
func atomicAddFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicFoldMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicFoldMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicFoldMin(&h.minBits, v)
	atomicFoldMax(&h.maxBits, v)
}

// HistogramBatch is a single-writer staging area for a Histogram: the
// owning goroutine Observes into plain fields (no atomic operations at
// all) and periodically Flushes the accumulated deltas into the shared
// Histogram with a bounded number of atomics. Readers of the Histogram
// lag by at most one flush interval. Use it when a hot path observes at
// a rate where even uncontended atomic adds show up in profiles — the
// core beacon path flushes once per simulated millisecond.
//
// A nil HistogramBatch (from a nil Histogram) is a valid no-op.
type HistogramBatch struct {
	h        *Histogram
	buckets  []uint64
	count    uint64
	sum      float64
	min, max float64
}

// Batch returns a new staging area for h (nil on a nil Histogram).
func (h *Histogram) Batch() *HistogramBatch {
	if h == nil {
		return nil
	}
	b := &HistogramBatch{h: h, buckets: make([]uint64, len(h.buckets))}
	b.reset()
	return b
}

func (b *HistogramBatch) reset() {
	b.count = 0
	b.sum = 0
	b.min = math.Inf(1)
	b.max = math.Inf(-1)
}

// Observe stages one sample. Not safe for concurrent use — only the
// single owning goroutine may call it.
func (b *HistogramBatch) Observe(v float64) {
	if b == nil {
		return
	}
	b.buckets[b.h.bucketIndex(v)]++
	b.count++
	b.sum += v
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
}

// Flush folds the staged observations into the Histogram and clears the
// batch. Call it from the owning goroutine.
func (b *HistogramBatch) Flush() {
	if b == nil || b.count == 0 {
		return
	}
	for i, d := range b.buckets {
		if d != 0 {
			b.h.buckets[i].Add(d)
			b.buckets[i] = 0
		}
	}
	b.h.count.Add(b.count)
	atomicAddFloat(&b.h.sumBits, b.sum)
	atomicFoldMin(&b.h.minBits, b.min)
	atomicFoldMax(&b.h.maxBits, b.max)
	b.reset()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// sum returns the sum of observations.
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation (+Inf when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (-Inf when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(h.maxBits.Load())
}

// quantile returns an estimate of the q-th quantile (0..1) by linear
// interpolation within the bucket where the cumulative count crosses
// q*total. Resolution is the bucket width; exact min/max clamp the
// extremes. NaN when empty.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil || h.Count() == 0 {
		return math.NaN()
	}
	total := float64(h.Count())
	rank := q * total
	var cum float64
	for i := range h.buckets {
		cum += float64(h.buckets[i].Load())
		if cum < rank {
			continue
		}
		// Bucket i holds the rank. Interpolate within [lo, hi].
		lo := h.Min()
		if i > 0 {
			lo = h.upper[i-1]
		}
		hi := h.Max()
		if i < len(h.upper) && h.upper[i] < hi {
			hi = h.upper[i]
		}
		if lo > hi {
			lo = hi
		}
		n := float64(h.buckets[i].Load())
		if n == 0 {
			return lo
		}
		frac := (rank - (cum - n)) / n
		v := lo + frac*(hi-lo)
		if v < h.Min() {
			v = h.Min()
		}
		if v > h.Max() {
			v = h.Max()
		}
		return v
	}
	return h.Max()
}

// QuantileAbs returns the quantile of |sample| magnitude assuming a
// roughly symmetric distribution: max(Q(q), -Q(1-q)). Convenient for
// "p99 of |offset|" reporting.
func (h *Histogram) QuantileAbs(q float64) float64 {
	hiQ := h.quantile(q)
	loQ := -h.quantile(1 - q)
	if loQ > hiQ {
		return loQ
	}
	return hiQ
}

func (h *Histogram) writeExposition(b *strings.Builder, name, labels string) {
	var cum uint64
	for i, up := range h.upper {
		cum += h.buckets[i].Load()
		writeSample(b, name+"_bucket", joinLabels(labels, fmt.Sprintf("le=%q", formatFloat(up))), float64(cum))
	}
	cum += h.buckets[len(h.upper)].Load()
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(b, name+"_sum", labels, h.sum())
	writeSample(b, name+"_count", labels, float64(h.Count()))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
