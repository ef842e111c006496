package sim

import (
	"testing"
	"unsafe"
)

// The steady-state guarantees the pooled slots exist to provide: once
// the slot arena, the lanes and the heap array have grown to the
// workload's high-water mark, periodic actor workloads — including
// cancel-heavy ones — schedule, cancel, and dispatch without a single
// allocation.

// periodicActor models the dominant simulation pattern: a self-
// rescheduling periodic source (a port's beacon timer).
type periodicActor struct {
	s      *Scheduler
	period Time
	fired  uint64
}

func (a *periodicActor) OnEvent(code uint8, _, _ uint64) {
	a.fired++
	a.s.AfterActor(a.period, a, code, 0, 0)
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	actors := make([]*periodicActor, 64)
	for i := range actors {
		actors[i] = &periodicActor{s: s, period: Microsecond + Time(i)*97*Nanosecond}
		s.AtActor(Time(i)*Nanosecond, actors[i], 0, 0, 0)
	}
	// Warm up: grow the arena, lanes and heap to steady state.
	s.RunFor(10 * Millisecond)
	avg := testing.AllocsPerRun(50, func() {
		s.RunFor(Millisecond)
	})
	if avg != 0 {
		t.Fatalf("steady-state periodic loop allocates %.1f per millisecond, want 0", avg)
	}
}

// watchdogActor reproduces the cancel-heavy pattern: every firing
// cancels a previously armed timeout and re-arms it further out (a
// beacon-loss watchdog being pushed by traffic). The cancelled event
// must be recycled immediately — if cancelled slots stayed linked (the
// old Event.Cancel retention bug) the arena would grow without bound
// and AllocsPerRun would observe the growth.
type watchdogActor struct {
	s       *Scheduler
	period  Time
	timeout Event
}

func (a *watchdogActor) OnEvent(code uint8, _, _ uint64) {
	if code == 1 {
		return // timeout fired: nothing to do in this model
	}
	a.timeout.Cancel()
	a.timeout = a.s.AfterActor(50*a.period, a, 1, 0, 0)
	a.s.AfterActor(a.period, a, 0, 0, 0)
}

func TestCancelHeavyZeroAlloc(t *testing.T) {
	s := NewScheduler()
	actors := make([]*watchdogActor, 64)
	for i := range actors {
		actors[i] = &watchdogActor{s: s, period: Microsecond + Time(i)*131*Nanosecond}
		s.AtActor(Time(i)*Nanosecond, actors[i], 0, 0, 0)
	}
	s.RunFor(10 * Millisecond)
	arena := len(s.slots)
	avg := testing.AllocsPerRun(50, func() {
		s.RunFor(Millisecond)
	})
	if avg != 0 {
		t.Fatalf("cancel-heavy loop allocates %.1f per millisecond, want 0", avg)
	}
	if grown := len(s.slots) - arena; grown > 0 {
		t.Fatalf("arena grew by %d slots after warmup: cancelled events are not being recycled", grown)
	}
}

// Marking and rewinding a stream copy its state and allocate nothing:
// a port marks its stream at every draw it takes at launch.
func TestRNGRewindZeroAlloc(t *testing.T) {
	r := NewRNG(1, "port/0/a")
	var m RNGMark
	if avg := testing.AllocsPerRun(100, func() { m = r.Mark() }); avg != 0 {
		t.Fatalf("Mark allocates %.1f, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { r.Rewind(m) }); avg != 0 {
		t.Fatalf("Rewind allocates %.1f, want 0", avg)
	}
}

// A cancelled event must retain nothing: its slot is immediately
// recyclable and its callback references are dropped.
func TestCancelRecyclesImmediately(t *testing.T) {
	s := NewScheduler()
	e := s.At(Second, func() { t.Fatal("cancelled event fired") })
	if !e.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Pending() {
		t.Fatal("cancelled event still Pending")
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", got)
	}
	// The freed slot must be reused by the very next schedule.
	before := len(s.slots)
	e2 := s.At(2*Second, func() {})
	if len(s.slots) != before {
		t.Fatalf("arena grew from %d to %d slots: cancelled slot not recycled", before, len(s.slots))
	}
	// The stale handle must not be able to touch the recycled slot.
	if e.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot (ABA)")
	}
	if !e2.Pending() {
		t.Fatal("recycled event lost by stale-handle interference")
	}
	if e2.s.slots[e2.slot].at != 2*Second {
		t.Fatalf("recycled event At() = %v, want 2s", e2.s.slots[e2.slot].at)
	}
}

// The lane links must not grow the pooled slot: prev shares storage with
// the heap position and the lane tag fits the padding, so an arena of N
// slots costs what it did before lanes existed.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got > 72 {
		t.Fatalf("eventSlot is %d bytes, want <= 72", got)
	}
}

// pipelineActor reproduces the shape of a port's per-beacon traffic in
// an untraced run, with opcodes numbered as the port numbers them: the
// beacon timer (0), whose message the receiving device's inbox applies
// with no event of its own, and, on one beacon in handBackEvery, a
// landing (7) that schedules its process event (4), as the few landings
// a wander step hands back do (core's TestEngineBudget reads 3 and 2
// per 10 000 beacons in lanes 7 and 4). Each is scheduled one per-stage
// constant ahead (beacon period; TX pipeline, cable and RX pipeline;
// CDC), the constants differing between actors by an oscillator's worth
// of skew. Within an opcode, schedule times are monotone up to a few
// places — the class of traffic the FIFO lanes exist for.
type pipelineActor struct {
	s                   *Scheduler
	period, flight, cdc Time
	beacons             int
}

// handBackEvery is how many beacons pass per landing kept as an event.
const handBackEvery = 3333

func (a *pipelineActor) OnEvent(code uint8, _, _ uint64) {
	switch code {
	case 0:
		a.s.AfterActor(a.period, a, 0, 0, 0)
		if a.beacons++; a.beacons%handBackEvery == 0 {
			a.s.AfterActor(a.flight, a, 7, 0, 0)
		}
	case 7:
		a.s.AfterActor(a.cdc, a, 4, 0, 0)
	}
}

// BenchmarkPipelineThroughput is the go-test handle on the lane path:
// 768 actors (fattree:8's port count) at ≈ 770 pending events.
func BenchmarkPipelineThroughput(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < 768; i++ {
		ppm := Time(i*37%201 - 100) // ±100 ppm, spread over the actors
		skew := func(d Time) Time { return d + d*ppm/1000000 }
		a := &pipelineActor{s: s, period: skew(7680 * Nanosecond), flight: skew(7500 * Nanosecond), cdc: skew(2800 * Nanosecond),
			beacons: i * handBackEvery / 768} // staggered, so the landings spread out
		s.AtActor(Time(i)*10*Nanosecond, a, 0, 0, 0)
	}
	benchRun(b, s)
}

// BenchmarkOverflowThroughput is the guard on the other regime: 256
// skewed periods on one opcode have no FIFO order for a lane to use, so
// nearly every insert is refused and lands in the heap. It should cost
// what BenchmarkHeapRefThroughput costs, the bypass check aside.
func BenchmarkOverflowThroughput(b *testing.B) {
	benchThroughput(b, NewScheduler())
}

func BenchmarkHeapRefThroughput(b *testing.B) {
	benchThroughput(b, NewHeapScheduler())
}

func benchThroughput(b *testing.B, s *Scheduler) {
	actors := make([]*periodicActor, 256)
	for i := range actors {
		actors[i] = &periodicActor{s: s, period: Microsecond + Time(i)*53*Nanosecond}
		s.AtActor(Time(i)*Nanosecond, actors[i], 0, 0, 0)
	}
	benchRun(b, s)
}

func benchRun(b *testing.B, s *Scheduler) {
	s.RunFor(Millisecond)
	b.ResetTimer()
	start := s.Processed()
	for s.Processed()-start < uint64(b.N) {
		s.RunFor(100 * Microsecond)
	}
}
