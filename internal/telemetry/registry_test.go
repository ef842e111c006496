package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "nil registry yields nil handles")
	g := r.Gauge("x", "")
	h := r.Histogram("x_hist", "", LinearBuckets(0, 1, 4))
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	// All updates and reads on nil handles must be safe no-ops.
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if !math.IsNaN(h.quantile(0.5)) {
		t.Fatal("nil histogram quantile must be NaN")
	}
	var tr *Tracer
	tr.Record(0, KindLinkUp, "x", 0, 0, "")
	if tr.Events() != nil || tr.Total() != 0 || tr.Enabled(KindLinkUp) {
		t.Fatal("nil tracer must be inert")
	}
	if err := WritePrometheus(&strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("dtp_beacons_sent_total", "h")
	b := r.Counter("dtp_beacons_sent_total", "h")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	l1 := r.Counter("dtp_x_total", "h", "host", "s4")
	l2 := r.Counter("dtp_x_total", "h", "host", "s5")
	if l1 == l2 {
		t.Fatal("different labels must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dtp_beacons_sent_total", "h")
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(LinearBuckets(-10, 1, 21)) // -10..10 step 1
	for i := -5; i <= 5; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 11 {
		t.Fatalf("count = %d, want 11", h.Count())
	}
	if h.Min() != -5 || h.Max() != 5 {
		t.Fatalf("min/max = %v/%v, want -5/5", h.Min(), h.Max())
	}
	if q := h.quantile(0.5); q < -1.5 || q > 1.5 {
		t.Fatalf("median %v too far from 0", q)
	}
	if q := h.quantile(1); q != 5 {
		t.Fatalf("Q(1) = %v, want 5 (exact max)", q)
	}
	if q := h.QuantileAbs(0.99); q < 4 || q > 5 {
		t.Fatalf("QuantileAbs(0.99) = %v, want ~5", q)
	}
	if s := h.sum(); s != 0 {
		t.Fatalf("sum = %v, want 0", s)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := newHistogram(LinearBuckets(0, 1, 3)) // 0,1,2 then +Inf
	h.Observe(-100)
	h.Observe(100)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.buckets[0].Load() != 1 || h.buckets[3].Load() != 1 {
		t.Fatal("extremes must land in first and +Inf buckets")
	}
}

func TestHistogramBatchMatchesDirectObserve(t *testing.T) {
	buckets := LinearBuckets(-8, 1, 17)
	direct := newHistogram(buckets)
	batched := newHistogram(buckets)
	b := batched.Batch()
	samples := []float64{-9.5, -3, 0, 0.25, 4, 4, 7.9, 123}
	for _, v := range samples {
		direct.Observe(v)
		b.Observe(v)
	}
	if batched.Count() != 0 {
		t.Fatal("staged observations must not be visible before Flush")
	}
	b.Flush()
	b.Flush() // empty flush is a no-op
	if batched.Count() != direct.Count() || batched.sum() != direct.sum() ||
		batched.Min() != direct.Min() || batched.Max() != direct.Max() {
		t.Fatalf("batched count/sum/min/max = %d/%v/%v/%v, direct = %d/%v/%v/%v",
			batched.Count(), batched.sum(), batched.Min(), batched.Max(),
			direct.Count(), direct.sum(), direct.Min(), direct.Max())
	}
	for i := range direct.buckets {
		if got, want := batched.buckets[i].Load(), direct.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d: batched %d, direct %d", i, got, want)
		}
	}
	// Second round through the same batch keeps accumulating correctly.
	b.Observe(2)
	b.Flush()
	if batched.Count() != direct.Count()+1 {
		t.Fatalf("count after second flush = %d, want %d", batched.Count(), direct.Count()+1)
	}

	var nilBatch *HistogramBatch
	nilBatch.Observe(1) // no-op, must not panic
	nilBatch.Flush()
	if (*Histogram)(nil).Batch() != nil {
		t.Fatal("nil Histogram must yield a nil Batch")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("dtp_beacons_sent_total", "Beacons transmitted.").Add(42)
	r.Gauge("dtp_links_up", "Links currently up.").Set(3)
	h := r.Histogram("dtp_offset_ticks", "Offset samples.", LinearBuckets(-2, 1, 5))
	h.Observe(-1)
	h.Observe(0)
	h.Observe(0)
	r.Counter("dtp_daemon_cals_total", "Cals.", "host", "s4").Add(7)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dtp_beacons_sent_total counter",
		"dtp_beacons_sent_total 42",
		"# TYPE dtp_links_up gauge",
		"dtp_links_up 3",
		"# TYPE dtp_offset_ticks histogram",
		`dtp_offset_ticks_bucket{le="-1"} 1`,
		`dtp_offset_ticks_bucket{le="0"} 3`,
		`dtp_offset_ticks_bucket{le="+Inf"} 3`,
		"dtp_offset_ticks_sum -1",
		"dtp_offset_ticks_count 3",
		`dtp_daemon_cals_total{host="s4"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "dtp_beacons_sent_total") > strings.Index(out, "dtp_links_up") {
		t.Fatal("families not sorted")
	}
}

// TestConcurrentUpdates exercises every metric type from many
// goroutines; run under -race this proves the registry race-clean.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LinearBuckets(0, 10, 10))
	tr := NewTracer(128)
	tr.SetKinds() // include firehose kinds
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(float64(i))
				h.Observe(float64(i % 100))
				tr.Record(0, KindBeaconRx, "p", int64(i), 0, "")
				if i%100 == 0 {
					var b strings.Builder
					_ = WritePrometheus(&b, r)
					_ = tr.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000 (SetMax(999) < 8000 adds)", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if tr.Total() != 8000 {
		t.Fatalf("tracer total = %d, want 8000", tr.Total())
	}
}

// Evenly spaced bounds compute the bucket index; it must be the scan's
// for every value: NaN and ±Inf, each bound exactly, the floats either
// side of each bound, and a spread of values in and around the range.
// Bounds that are not evenly spaced keep the scan.
func TestLinearBucketIndexMatchesScan(t *testing.T) {
	for _, b := range [][]float64{
		LinearBuckets(-8, 1, 17), // dtp_beacon_offset_ticks
		LinearBuckets(0, 0.5, 10),
		LinearBuckets(-1e3, 250, 9),
		LinearBuckets(1e-9, 1e-9, 12),
		LinearBuckets(0.1, 0.1, 7), // 0.1 steps do not add up exactly: scanned
		ExponentialBuckets(1, 2, 8),
		{0, 1, 3},
	} {
		h := newHistogram(b)
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64, -math.MaxFloat64}
		for _, u := range b {
			vals = append(vals, u, math.Nextafter(u, math.Inf(-1)), math.Nextafter(u, math.Inf(1)))
		}
		lo, hi := b[0], b[len(b)-1]
		for i := 0; i <= 1000; i++ {
			vals = append(vals, lo-(hi-lo)/4+float64(i)*(hi-lo)*1.5/1000)
		}
		for _, v := range vals {
			if got, want := h.bucketIndex(v), h.scanIndex(v); got != want {
				t.Fatalf("bounds %v: bucketIndex(%v) = %d, the scan says %d", b, v, got, want)
			}
		}
	}
	if h := newHistogram(LinearBuckets(-8, 1, 17)); h.invWidth == 0 {
		t.Fatal("unit-wide bounds not recognised as evenly spaced")
	}
	if h := newHistogram(ExponentialBuckets(1, 2, 8)); h.invWidth != 0 {
		t.Fatal("exponential bounds taken for evenly spaced")
	}
}
