package timesvc

import (
	"errors"
	"math"
	"testing"
	"time"
)

// fakeTimebase is a settable raw clock for table tests.
type fakeTimebase struct{ raw int64 }

func (f *fakeTimebase) Raw() int64 { return f.raw }

func publishedClock(tb Timebase, sn Snapshot) *Clock {
	st := &Store{}
	st.Publish(sn)
	return NewClock(st, tb)
}

func TestClockNoSnapshot(t *testing.T) {
	c := NewClock(&Store{}, &fakeTimebase{})
	if _, err := c.Now(); !errors.Is(err, errNoSnapshot) {
		t.Fatalf("Now err = %v, want errNoSnapshot", err)
	}
	if _, err := c.NowInterval(); !errors.Is(err, errNoSnapshot) {
		t.Fatalf("NowInterval err = %v, want errNoSnapshot", err)
	}
	if _, err := c.waitUntil(0); !errors.Is(err, errNoSnapshot) {
		t.Fatalf("waitUntil err = %v, want errNoSnapshot", err)
	}
}

func TestClockInterpolationAndWidening(t *testing.T) {
	tb := &fakeTimebase{}
	c := publishedClock(tb, Snapshot{
		Epoch:     1,
		AnchorRaw: 1_000_000,
		AnchorUTC: 5_000_000,
		Ratio:     2.0, // easy to spot in expected values
		BoundPs:   100,
		DriftPPM:  50, // 50 ppm: +1 ps of ε per 20000 ps of age
	})

	tb.raw = 1_000_000 // at the anchor
	utc, iv, err := c.At(tb.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if utc != 5_000_000 {
		t.Fatalf("utc at anchor = %v, want 5000000", utc)
	}
	if iv.HalfWidthPs() != 100 {
		t.Fatalf("ε at anchor = %v, want 100", iv.HalfWidthPs())
	}

	tb.raw = 1_020_000 // 20000 ps later
	utc, iv, err = c.At(tb.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if want := 5_000_000 + 20_000*2.0; utc != want {
		t.Fatalf("utc = %v, want %v", utc, want)
	}
	if want := 100 + 1.0; math.Abs(iv.HalfWidthPs()-want) > 1e-9 {
		t.Fatalf("ε after 20000 ps = %v, want %v", iv.HalfWidthPs(), want)
	}
	if !iv.Contains(utc) || iv.Contains(utc+200) || iv.Contains(utc-200) {
		t.Fatalf("interval [%v, %v] shape wrong around %v", iv.EarliestPs, iv.LatestPs, utc)
	}
	if iv.WidthPs() != 2*iv.HalfWidthPs() {
		t.Fatalf("WidthPs %v != 2×HalfWidthPs %v", iv.WidthPs(), iv.HalfWidthPs())
	}
}

func TestClockFailsClosedWhenStale(t *testing.T) {
	tb := &fakeTimebase{}
	c := publishedClock(tb, Snapshot{
		Epoch: 1, AnchorRaw: 0, AnchorUTC: 0, Ratio: 1, BoundPs: 10,
		MaxAgePs: 1000,
	})
	tb.raw = 1000 // exactly MaxAge: still served
	if _, err := c.Now(); err != nil {
		t.Fatalf("read at MaxAge failed: %v", err)
	}
	tb.raw = 1001 // past it: fail closed
	if _, err := c.Now(); !errors.Is(err, ErrStale) {
		t.Fatalf("read past MaxAge err = %v, want ErrStale", err)
	}
	if _, err := c.waitUntil(0); !errors.Is(err, ErrStale) {
		t.Fatalf("WaitUntil past MaxAge err = %v, want ErrStale", err)
	}
}

func TestClockAfterBefore(t *testing.T) {
	tb := &fakeTimebase{raw: 0}
	c := publishedClock(tb, Snapshot{
		Epoch: 1, AnchorRaw: 0, AnchorUTC: 10_000, Ratio: 1, BoundPs: 100,
	})
	// Interval is [9900, 10100].
	if after, _ := c.after(9_800); !after {
		t.Fatal("After(9800) = false; earliest 9900 has passed it")
	}
	if after, _ := c.after(10_000); after {
		t.Fatal("After(10000) = true; 10000 is inside the interval")
	}
	if before, _ := c.before(10_200); !before {
		t.Fatal("Before(10200) = false; latest 10100 has not reached it")
	}
	if before, _ := c.before(10_000); before {
		t.Fatal("Before(10000) = true; 10000 is inside the interval")
	}
}

func TestClockWaitUntil(t *testing.T) {
	tb := &fakeTimebase{raw: 0}
	c := publishedClock(tb, Snapshot{
		Epoch: 1, AnchorRaw: 0, AnchorUTC: 1_000_000, Ratio: 1, BoundPs: 100_000,
	})
	// earliest = 900000 ps. Target already passed: no wait.
	if d, err := c.waitUntil(800_000); err != nil || d != 0 {
		t.Fatalf("WaitUntil(past) = %v, %v; want 0, nil", d, err)
	}
	// Target 1 µs past earliest: wait ≈ 1 µs of timebase.
	d, err := c.waitUntil(1_900_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Microsecond; d != want {
		t.Fatalf("WaitUntil = %v, want %v", d, want)
	}
}

func TestClockReadZeroAlloc(t *testing.T) {
	tb := NewWallTimebase(0)
	c := publishedClock(tb, Snapshot{
		Epoch: 1, AnchorRaw: 0, AnchorUTC: 0, Ratio: 1, BoundPs: 100,
	})
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := c.NowInterval(); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Fatalf("Clock.NowInterval allocates %.1f times per call, want 0", n)
	}
}

// clockSink keeps benchmarked intervals from being optimised away.
var clockSink Interval

// BenchmarkClockAt is the store load plus the interval arithmetic, on a
// fixed timebase so no clock read is in the loop.
func BenchmarkClockAt(b *testing.B) {
	c := publishedClock(&fakeTimebase{}, Snapshot{Epoch: 1, Ratio: 1, BoundPs: 50e3, DriftPPM: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, clockSink, _ = c.At(int64(i))
	}
}

// BenchmarkClockNowInterval is the whole read an application makes: the
// wall clock (time.Since) plus BenchmarkClockAt's work.
func BenchmarkClockNowInterval(b *testing.B) {
	c := publishedClock(NewWallTimebase(0), Snapshot{Epoch: 1, Ratio: 1, BoundPs: 50e3, DriftPPM: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockSink, _ = c.NowInterval()
	}
}

func TestWallTimebaseAdvances(t *testing.T) {
	tb := NewWallTimebase(42)
	a := tb.Raw()
	if a < 42 {
		t.Fatalf("Raw = %d, want >= base 42", a)
	}
	time.Sleep(time.Millisecond)
	b := tb.Raw()
	if b-a < int64(500*1000*1000) { // at least 0.5 ms in ps
		t.Fatalf("Raw advanced only %d ps over a 1 ms sleep", b-a)
	}
}
