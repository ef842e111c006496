package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestStripedBucketIndex checks Observe's bucket arithmetic against a
// table: each value, observed alone, must land in the wanted bucket.
func TestStripedBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {math.NaN(), 0},
		{1, 0}, {1000, 0},
		{1001, 1}, {2000, 1},
		{2001, 2}, {4000, 2},
		{4001, 3},
		{1000 * 128, 7},              // top finite bucket (unit·2^7)
		{1000*128 + 1, 8}, {1e18, 8}, // overflow
	}
	for _, c := range cases {
		w := NewStripedHistogram(1000, 8, 1).Writer()
		w.Observe(c.v)
		got := -1
		for i, n := range w.local {
			if n != 0 {
				got = i
			}
		}
		if got != c.want {
			t.Errorf("Observe(%g) filled bucket %d, want %d", c.v, got, c.want)
		}
	}
}

func TestStripedObserveAndSnapshot(t *testing.T) {
	h := NewStripedHistogram(10, 8, 4)
	w := h.Writer()
	for i := 1; i <= 1000; i++ {
		w.Observe(float64(i))
	}
	w.Flush()
	s := h.snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if want := 1000.0 * 1001 / 2; s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestStripedConcurrent hammers one histogram from many writers while a
// scraper merges the stripes concurrently.
// Under -race this proves the no-torn-reads claim; the final merged
// totals prove no observation is lost.
func TestStripedConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 10000
	h := NewStripedHistogram(1, 16, writers)

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.snapshot()
			var total uint64
			for _, n := range s.Buckets {
				total += n
			}
			if total != s.Count {
				// Bucket/count skew within one unflushed batch per
				// writer is allowed; torn words are not. Both totals
				// are sums of atomic loads, so a mismatch here can only
				// be flush-in-progress skew — bounded by the writers'
				// batch size.
				if diff := int64(total) - int64(s.Count); diff > writers*defaultFlushEvery || diff < -writers*defaultFlushEvery {
					t.Errorf("snapshot skew %d exceeds one batch per writer", diff)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := h.Writer()
			for j := 0; j < perWriter; j++ {
				w.Observe(float64(i*perWriter + j))
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	s := h.snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	n := float64(writers * perWriter)
	if want := n * (n - 1) / 2; math.Abs(s.Sum-want) > want*1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
}

// TestStripeWriterAllocs pins the zero-allocation claim on the record
// path — the property that lets the timesvc fast path carry a writer.
func TestStripeWriterAllocs(t *testing.T) {
	h := NewStripedHistogram(1000, 24, 2)
	w := h.Writer()
	v := 0.0
	allocs := testing.AllocsPerRun(10000, func() {
		v += 17
		w.Observe(v)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

func TestStripedNilSafety(t *testing.T) {
	var h *StripedHistogram
	w := h.Writer()
	w.Observe(1)
	w.Flush()
}

// stripedTotals is the merged view of every stripe.
type stripedTotals struct {
	Buckets []uint64 // nb+1; the last is the overflow bucket
	Count   uint64
	Sum     float64
}

// snapshot merges every stripe with atomic loads: the read side the
// tests check the writers against.
func (h *StripedHistogram) snapshot() stripedTotals {
	s := stripedTotals{Buckets: make([]uint64, h.nb+1)}
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
