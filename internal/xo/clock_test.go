package xo

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/dtplab/dtp/internal/sim"
)

func newTestClock(t *testing.T, ppm float64) (*sim.Scheduler, *Clock) {
	t.Helper()
	sch := sim.NewScheduler()
	rng := sim.NewRNG(1, "xo-test")
	return sch, NewClock(sch, rng, Default10G(ppm))
}

func TestNominalCounterRate(t *testing.T) {
	sch, c := newTestClock(t, 0)
	sch.Run(sim.Second)
	// 156.25 MHz for one second = 156,250,000 ticks.
	got := c.Counter()
	if got != 156_250_000 {
		t.Fatalf("counter after 1s = %d, want 156250000", got)
	}
}

func TestFastAndSlowClocksDiverge(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRNG(1, "xo")
	fast := NewClock(sch, rng, Default10G(+100))
	slow := NewClock(sch, rng, Default10G(-100))
	sch.Run(sim.Second)
	diff := int64(fast.Counter()) - int64(slow.Counter())
	// ±100 ppm over 156.25e6 ticks = ±15625 each, 31250 total.
	if diff < 31200 || diff > 31300 {
		t.Fatalf("fast-slow divergence = %d ticks/s, want ~31250", diff)
	}
}

func TestCounterMonotonicAcrossQueries(t *testing.T) {
	sch, c := newTestClock(t, 37.5)
	prev := uint64(0)
	for i := 0; i < 10000; i++ {
		sch.RunFor(731 * sim.Picosecond)
		n := c.Counter()
		if n < prev {
			t.Fatalf("counter went backwards: %d -> %d", prev, n)
		}
		prev = n
	}
}

func TestTimeOfCountInvertsCounterAt(t *testing.T) {
	sch, c := newTestClock(t, -63.2)
	sch.Run(sim.Millisecond)
	for n := uint64(200_000); n < 200_100; n++ {
		at := c.TimeOfCount(n)
		if got := c.CounterAt(at); got < n {
			t.Fatalf("CounterAt(TimeOfCount(%d)) = %d, want >= %d", n, got, n)
		}
		if at > sim.Picosecond {
			if got := c.CounterAt(at - sim.Picosecond); got >= n {
				t.Fatalf("counter reached %d before TimeOfCount: %d", n, got)
			}
		}
	}
}

func TestSetCounterAtJumpsForward(t *testing.T) {
	sch, c := newTestClock(t, 0)
	sch.Run(sim.Microsecond)
	now := sch.Now()
	cur := c.CounterAt(now)
	c.setCounterAt(cur+5, now)
	if got := c.CounterAt(now); got != cur+5 {
		t.Fatalf("after jump, counter = %d, want %d", got, cur+5)
	}
	// Tick phase must be preserved: counting rate continues unchanged.
	sch.Run(2 * sim.Microsecond)
	want := cur + 5 + uint64((sim.Microsecond)/sim.Time(6400)) // 6.4ns ticks over 1us
	got := c.Counter()
	if got < want-1 || got > want+1 {
		t.Fatalf("after jump + 1us, counter = %d, want ~%d", got, want)
	}
}

func TestSetCounterAtRejectsBackwards(t *testing.T) {
	sch, c := newTestClock(t, 0)
	sch.Run(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards jump did not panic")
		}
	}()
	c.setCounterAt(c.Counter()-1, sch.Now())
}

func TestAdjustPPMPreservesCount(t *testing.T) {
	sch, c := newTestClock(t, 0)
	sch.Run(sim.Millisecond)
	before := c.Counter()
	c.AdjustPPM(80)
	if got := c.Counter(); got != before {
		t.Fatalf("AdjustPPM changed current count %d -> %d", before, got)
	}
	if c.PPM() != 80 {
		t.Fatalf("PPM() = %v, want 80", c.PPM())
	}
	// New rate should apply going forward.
	start := c.Counter()
	sch.RunFor(sim.Second)
	delta := c.Counter() - start
	want := 156_250_000.0 * (1 + 80e-6)
	if math.Abs(float64(delta)-want) > 20 {
		t.Fatalf("ticks in 1s after AdjustPPM(80) = %d, want ~%.0f", delta, want)
	}
}

func TestPeriodWithinStandardBounds(t *testing.T) {
	for _, ppm := range []float64{-100, -50, 0, 50, 100} {
		_, c := newTestClock(t, ppm)
		p := c.PeriodFs()
		lo := int64(6_399_360) // 6.4ns * (1-1e-4)
		hi := int64(6_400_641) // 6.4ns / (1-1e-4), rounded up
		if p < lo || p > hi {
			t.Fatalf("period %d fs at %v ppm outside [%d, %d]", p, ppm, lo, hi)
		}
	}
}

func TestOutOfRangePPMPanics(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRNG(1, "xo")
	defer func() {
		if recover() == nil {
			t.Fatal("150 ppm did not panic")
		}
	}()
	NewClock(sch, rng, Default10G(150))
}

func TestWanderStaysBounded(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRNG(99, "xo-wander")
	c := NewClock(sch, rng, Params{
		NominalPeriodFs: nominalPeriod10GFs,
		OffsetPPM:       95,
		WanderInterval:  sim.Millisecond,
		WanderStepPPB:   5000, // extreme to force clamping
	})
	prev := c.Counter()
	for i := 0; i < 500; i++ {
		sch.RunFor(sim.Millisecond)
		if p := c.PPM(); p > defaultMaxPPM || p < -defaultMaxPPM {
			t.Fatalf("wander escaped bounds: %v ppm", p)
		}
		n := c.Counter()
		if n < prev {
			t.Fatalf("counter regressed during wander: %d -> %d", prev, n)
		}
		prev = n
	}
}

func TestWanderChangesFrequency(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRNG(7, "xo-wander2")
	c := NewClock(sch, rng, Params{
		NominalPeriodFs: nominalPeriod10GFs,
		WanderInterval:  sim.Millisecond,
		WanderStepPPB:   100,
	})
	sch.Run(100 * sim.Millisecond)
	if c.PPM() == 0 {
		t.Fatal("wander never moved the frequency")
	}
}

// Property: for any offset within range and any sequence of query times,
// CounterAt is nondecreasing and gains ticks at a rate within ±101 ppm of
// nominal over any window larger than one tick.
func TestCounterRateProperty(t *testing.T) {
	f := func(ppmScaled int16, steps []uint16) bool {
		ppm := float64(ppmScaled) / float64(1<<15) * 100 // in [-100, 100)
		sch := sim.NewScheduler()
		rng := sim.NewRNG(5, "prop")
		c := NewClock(sch, rng, Default10G(ppm))
		type sample struct {
			t sim.Time
			n uint64
		}
		var prev sample
		for _, s := range steps {
			sch.RunFor(sim.Time(s) * sim.Nanosecond)
			n := c.Counter()
			if n < prev.n {
				return false
			}
			prev = sample{sch.Now(), n}
		}
		if prev.t == 0 {
			return true
		}
		// Rate check over the full window.
		rate := float64(prev.n) / prev.t.Seconds()
		lo := 156.25e6 * (1 - 101e-6)
		hi := 156.25e6 * (1 + 101e-6)
		// Allow one tick of quantization slack at tiny windows.
		slack := 1.5 / prev.t.Seconds()
		return rate >= lo-slack && rate <= hi+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCounterAt(b *testing.B) {
	sch := sim.NewScheduler()
	rng := sim.NewRNG(1, "xo")
	c := NewClock(sch, rng, Default10G(12.5))
	sch.Run(sim.Second)
	t := sch.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.CounterAt(t)
	}
}

// The panic values are plain values, to keep CounterAt and TimeOfCount
// inlinable; their text is what the formatted panics said.
func TestPanicValuesKeepText(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{beforeBase(-sim.Nanosecond), "xo: CounterAt(-1000ps) precedes base tick"},
		{countBeforeBase{}, "xo: TimeOfCount before base count"},
		{jumpBackwards{5, 3}, "xo: counter jump backwards (5 -> 3)"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%q, want %q", got, c.want)
		}
	}
}

// setCounterAt jumps the counter so that CounterAt(t) == n. Tick phase and
// frequency are unchanged: only the labels move, exactly as a DTP local
// counter adjustment works in hardware. n must not move the counter
// backwards.
func (c *Clock) setCounterAt(n uint64, t sim.Time) {
	cur := c.CounterAt(t)
	if n < cur {
		panic(jumpBackwards{cur, n})
	}
	c.baseTickFs = c.tickFs(cur)
	c.baseCount = n
}
