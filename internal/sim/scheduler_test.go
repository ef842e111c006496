package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*Nanosecond, func() { got = append(got, 3) })
	s.At(10*Nanosecond, func() { got = append(got, 1) })
	s.At(20*Nanosecond, func() { got = append(got, 2) })
	s.Run(Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != Second {
		t.Fatalf("Now() = %v, want %v", s.Now(), Second)
	}
}

func TestSchedulerFIFOAtSameTimestamp(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Nanosecond, func() { got = append(got, i) })
	}
	s.Run(Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: index %d got %d", i, v)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	var chain func()
	chain = func() {
		fired = append(fired, s.Now())
		if len(fired) < 5 {
			s.After(7*Nanosecond, chain)
		}
	}
	s.After(0, chain)
	s.Run(Second)
	if len(fired) != 5 {
		t.Fatalf("chain fired %d times, want 5", len(fired))
	}
	for i, ft := range fired {
		want := Time(i) * 7 * Nanosecond
		if ft != want {
			t.Fatalf("firing %d at %v, want %v", i, ft, want)
		}
	}
}

func TestSchedulerRunHonorsHorizon(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(2*Second, func() { fired = true })
	s.Run(Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.Run(3 * Second)
	if !fired {
		t.Fatal("event within extended horizon did not fire")
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(Nanosecond, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	s.Run(Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	e := s.At(Nanosecond, func() {})
	s.Run(Second)
	if e.Cancel() {
		t.Fatal("Cancel returned true for fired event")
	}
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var got []int
	var events []Event
	for i := 0; i < 50; i++ {
		i := i
		events = append(events, s.At(Time(i)*Nanosecond, func() { got = append(got, i) }))
	}
	// Cancel every odd event.
	for i := 1; i < 50; i += 2 {
		if !events[i].Cancel() {
			t.Fatalf("cancel of event %d failed", i)
		}
	}
	s.Run(Second)
	if len(got) != 25 {
		t.Fatalf("fired %d events, want 25", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func() {})
	s.Run(Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Millisecond, func() {})
}

func TestSchedulerStepAdvancesTime(t *testing.T) {
	s := NewScheduler()
	s.At(42*Nanosecond, func() {})
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if s.Now() != 42*Nanosecond {
		t.Fatalf("Now() = %v after Step, want 42ns", s.Now())
	}
	if s.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{6400 * Picosecond, "6.4ns"},
		{1280 * Nanosecond, "1.28us"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromStd(time.Microsecond) != Microsecond {
		t.Fatal("FromStd(1us) mismatch")
	}
	if (5 * Millisecond).Std() != 5*time.Millisecond {
		t.Fatal("Std() mismatch")
	}
	if (2 * Nanosecond).Fs() != 2_000_000 {
		t.Fatal("Fs() mismatch")
	}
	if Femto(6_400_000) != Time(6400) {
		t.Fatal("Femto mismatch")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds mismatch")
	}
}

// Property: for any set of event delays, events fire in nondecreasing time
// order and every event within the horizon fires exactly once.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			s.At(Time(d)*Nanosecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run(Time(1<<16) * Nanosecond)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7, "oscillator/0")
	b := NewRNG(7, "oscillator/0")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,label) streams diverged")
		}
	}
}

// A mark, draws of every kind, then a rewind to the mark: the same
// draws replay the same values, and a second rewind replays them again.
func TestRNGRewindReplays(t *testing.T) {
	r := NewRNG(7, "port/0/a")
	r.Uint64() // not at the stream's start
	draws := func() (got [4]float64) {
		got[0] = float64(r.IntN(2))
		got[1] = r.Float64()
		got[2] = r.NormFloat64()
		got[3] = float64(r.Uint64())
		return got
	}
	m := r.Mark()
	first := draws()
	after := r.Mark()
	for i := 0; i < 2; i++ {
		r.Rewind(m)
		if again := draws(); again != first {
			t.Fatalf("replay %d drew %v, first pass %v", i, again, first)
		}
		if r.Mark() != after {
			t.Fatalf("replay %d left the stream elsewhere than the first pass", i)
		}
	}
}

func TestRNGIndependentLabels(t *testing.T) {
	a := NewRNG(7, "oscillator/0")
	b := NewRNG(7, "oscillator/1")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different labels collided %d/64 times", same)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(1, "t")
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestRNGUniformTimeBounds(t *testing.T) {
	r := NewRNG(3, "t")
	for i := 0; i < 1000; i++ {
		v := r.UniformTime(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("UniformTime out of range: %v", v)
		}
	}
	if r.UniformTime(5, 5) != 5 {
		t.Fatal("degenerate UniformTime")
	}
}

func TestRNGExpTimePositive(t *testing.T) {
	r := NewRNG(4, "t")
	for i := 0; i < 1000; i++ {
		if r.ExpTime(100*Nanosecond) < 1 {
			t.Fatal("ExpTime returned < 1 ps")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5, "t")
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Normal mean %.3f, want ~10", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Normal variance %.3f, want ~4", variance)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			s.After(Nanosecond, next)
		}
	}
	s.After(Nanosecond, next)
	b.ResetTimer()
	drain(s)
}

// Due is the bound deferred work is applied to: inside a dispatch, what
// sorts before the event being dispatched; between dispatches,
// everything up to now. AfterRun hooks run once per Run, with the clock
// at the horizon.
func TestDueBoundsDispatch(t *testing.T) {
	s := NewScheduler()
	early := s.Reserve() // a key taken before the events below
	var late Key
	s.At(10*Nanosecond, func() {
		late = s.Reserve()
		if !s.Due(10*Nanosecond, early) || s.Due(10*Nanosecond, late) {
			t.Error("inside a dispatch, Due must admit earlier keys only")
		}
		if !s.Due(9*Nanosecond, late) || s.Due(11*Nanosecond, early) {
			t.Error("Due must go by time first")
		}
	})
	var hooks []Time
	s.AfterRun(func() {
		hooks = append(hooks, s.Now())
		if !s.Due(s.Now(), late) {
			t.Error("between dispatches, every key at now is due")
		}
	})
	s.Run(10 * Nanosecond)
	s.Run(20 * Nanosecond)
	if len(hooks) != 2 || hooks[0] != 10*Nanosecond || hooks[1] != 20*Nanosecond {
		t.Fatalf("AfterRun ran at %v, want once per Run at its horizon", hooks)
	}
}

// The panic values are plain values, to keep the tick arithmetic
// inlinable; their text is what the formatted panics said.
func TestPanicValuesKeepText(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{fsOverflow(-1 << 62), "sim: -4611686018427387904 ps overflows femtosecond representation"},
		{pastSchedule{Millisecond, Second}, "sim: scheduling at 1000us (now 1s)"},
		{negativeDelay(-Nanosecond), "sim: negative delay -1000ps"},
		{keyAhead{2 * Nanosecond, Nanosecond}, "sim: key from 2ns for an event at 1000ps"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%q, want %q", got, c.want)
		}
	}
	defer func() {
		if _, ok := recover().(pastSchedule); !ok {
			t.Error("scheduling in the past did not panic with pastSchedule")
		}
	}()
	s := NewScheduler()
	s.Run(Second)
	s.At(Millisecond, func() {})
}

// drain dispatches every remaining event regardless of timestamp.
func drain(s *Scheduler) {
	for s.Step() {
	}
}
