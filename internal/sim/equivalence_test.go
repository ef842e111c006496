package sim

import (
	"fmt"
	"testing"
)

// NewScheduler (FIFO lanes ahead of the heap) and NewHeapScheduler (the
// heap alone, the reference) must produce identical dispatch orders for
// any workload: both implement the total order (time, seq). The tests
// below drive both with mirrored randomized workloads — closures and
// actor events over eleven opcodes (so lanes are shared), same-timestamp
// bursts, cancels, re-schedules, nested scheduling from callbacks —
// across multiple uneven Run horizons, and require the (time, id)
// dispatch logs to match exactly and the reference's log to be sorted by
// (time, seq). Directed cases then pin the lane mechanics one by one.

type eqRecord struct {
	at Time
	id int
}

// eqWorker drives one scheduler with a deterministic self-similar
// workload: every callback logs itself, then draws from the worker's
// own RNG stream to decide whether to schedule children, burst
// same-time siblings, or cancel a random live handle. Two workers with
// the same seed stay in lockstep exactly as long as their schedulers
// dispatch in the same order — any divergence cascades into the logs.
type eqWorker struct {
	s      *Scheduler
	rng    *RNG
	log    []eqRecord
	live   []Event
	nextID int
	budget int
}

// eqOpcodes exceeds the lane count, so opcodes alias onto lanes.
const eqOpcodes = 11

// spawn schedules event id as a closure one time in three and as an
// actor event on a random opcode otherwise.
func (w *eqWorker) spawn(at Time, id int) {
	var e Event
	if w.rng.IntN(3) == 0 {
		e = w.s.At(at, func() { w.fire(id) })
	} else {
		e = w.s.AtActor(at, w, uint8(w.rng.IntN(eqOpcodes)), uint64(id), 0)
	}
	w.live = append(w.live, e)
}

func (w *eqWorker) OnEvent(_ uint8, id, _ uint64) { w.fire(int(id)) }

func (w *eqWorker) fire(id int) {
	w.log = append(w.log, eqRecord{at: w.s.Now(), id: id})
	if w.budget <= 0 {
		return
	}
	switch w.rng.IntN(5) {
	case 0: // burst: several children at one future instant (FIFO order)
		t := w.s.Now() + w.rng.UniformTime(0, 50*Microsecond)
		n := 2 + w.rng.IntN(3)
		for i := 0; i < n; i++ {
			w.budget--
			w.nextID++
			w.spawn(t, w.nextID)
		}
	case 1: // far child: many milliseconds ahead
		w.budget--
		w.nextID++
		w.spawn(w.s.Now()+w.rng.UniformTime(10*Millisecond, 80*Millisecond), w.nextID)
	case 2: // cancel a random live handle, then replace it
		if len(w.live) > 0 {
			i := w.rng.IntN(len(w.live))
			if w.live[i].Cancel() {
				w.budget--
				w.nextID++
				w.spawn(w.s.Now()+w.rng.UniformTime(0, Millisecond), w.nextID)
			}
			w.live = append(w.live[:i], w.live[i+1:]...)
		}
	case 3: // immediate child at the current instant
		w.budget--
		w.nextID++
		w.spawn(w.s.Now(), w.nextID)
	default: // near child
		w.budget--
		w.nextID++
		w.spawn(w.s.Now()+w.rng.UniformTime(0, 200*Microsecond), w.nextID)
	}
}

func runEquivalenceSeed(t *testing.T, seed uint64) {
	t.Helper()
	mk := func(s *Scheduler) *eqWorker {
		w := &eqWorker{s: s, rng: NewRNG(seed, "eq"), budget: 4000}
		for i := 0; i < 200; i++ {
			w.nextID++
			w.spawn(w.rng.UniformTime(0, 2*Millisecond), w.nextID)
		}
		return w
	}
	lanes := mk(NewScheduler())
	heap := mk(NewHeapScheduler())
	// Advance both in uneven horizon chunks so events straddle Run
	// boundaries, with dense and sparse stretches between them.
	for _, h := range []Time{Millisecond, 3 * Millisecond, 40 * Millisecond, 200 * Millisecond, Second} {
		lanes.s.Run(h)
		heap.s.Run(h)
		if lanes.s.Pending() != heap.s.Pending() {
			t.Fatalf("seed %d: pending diverged at horizon %v: lanes+heap %d, heap %d",
				seed, h, lanes.s.Pending(), heap.s.Pending())
		}
	}
	drain(lanes.s)
	drain(heap.s)
	eqSorted(t, heap.log)
	eqCompare(t, lanes.log, heap.log)
	if lanes.s.Processed() != heap.s.Processed() {
		t.Fatalf("seed %d: processed counts diverged: %d vs %d",
			seed, lanes.s.Processed(), heap.s.Processed())
	}
}

// eqSorted checks a dispatch log against (time, seq) directly. Ids are
// assigned in schedule order, so (at, id) order is (time, seq) order:
// the check the heap reference itself answers to.
func eqSorted(t *testing.T, log []eqRecord) {
	t.Helper()
	for i := 1; i < len(log); i++ {
		if p, c := log[i-1], log[i]; c.at < p.at || c.at == p.at && c.id < p.id {
			t.Fatalf("dispatch %d out of (time, seq) order: (%v, %d) after (%v, %d)", i, c.at, c.id, p.at, p.id)
		}
	}
}

func TestLaneHeapEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalenceSeed(t, seed)
		})
	}
}

// eqTick is one periodic source of the test below.
type eqTick struct {
	s      *Scheduler
	log    *[]eqRecord
	id     int
	period Time
	left   int
}

func (tk *eqTick) OnEvent(code uint8, _, _ uint64) {
	if tk.fire() {
		tk.s.AfterActor(tk.period, tk, code, 0, 0)
	}
}

func (tk *eqTick) fire() bool {
	*tk.log = append(*tk.log, eqRecord{at: tk.s.Now(), id: tk.id})
	tk.left--
	return tk.left >= 0
}

// The periodic regime that dominates real runs: many sources on skewed
// periods — two thirds of them actors spread over the opcodes, the rest
// closures — each lane holding several interleaved periods. Both
// schedulers must agree on every dispatch.
func TestLaneHeapEquivalencePeriodic(t *testing.T) {
	mkAll := func(s *Scheduler, log *[]eqRecord) {
		for i := 0; i < 64; i++ {
			tk := &eqTick{s: s, log: log, id: i, period: Microsecond + Time(i)*137*Nanosecond, left: 300}
			if i%3 == 0 {
				var fire func()
				fire = func() {
					if tk.fire() {
						s.After(tk.period, fire)
					}
				}
				s.At(Time(i)*Nanosecond, fire)
			} else {
				s.AtActor(Time(i)*Nanosecond, tk, uint8(i%eqOpcodes), 0, 0)
			}
		}
	}
	var lanesLog, heapLog []eqRecord
	lanes, heap := NewScheduler(), NewHeapScheduler()
	mkAll(lanes, &lanesLog)
	mkAll(heap, &heapLog)
	drain(lanes)
	drain(heap)
	eqCompare(t, lanesLog, heapLog)
	if st := lanes.QueueStats(); st.LaneInserts == 0 || st.LaneOverflows == 0 {
		t.Fatalf("periodic mix should both fill lanes and overflow them: %+v", st)
	}
}

func eqCompare(t *testing.T, lanesLog, heapLog []eqRecord) {
	t.Helper()
	if len(lanesLog) != len(heapLog) {
		t.Fatalf("dispatched %d events on lanes+heap, %d on heap", len(lanesLog), len(heapLog))
	}
	for i := range lanesLog {
		if lanesLog[i] != heapLog[i] {
			t.Fatalf("dispatch %d diverged: lanes+heap (%v, %d), heap (%v, %d)",
				i, lanesLog[i].at, lanesLog[i].id, heapLog[i].at, heapLog[i].id)
		}
	}
}

// eqRig is one scheduler under a directed script: every event it fires,
// closure or actor, logs (now, id).
type eqRig struct {
	s   *Scheduler
	log []eqRecord
}

func (r *eqRig) OnEvent(_ uint8, id, _ uint64) {
	r.log = append(r.log, eqRecord{at: r.s.Now(), id: int(id)})
}

func (r *eqRig) actor(at Time, code uint8, id int) Event {
	return r.s.AtActor(at, r, code, uint64(id), 0)
}

func (r *eqRig) closure(at Time, id int) Event {
	return r.s.At(at, func() { r.OnEvent(0, uint64(id), 0) })
}

func (r *eqRig) ids() []int {
	out := make([]int, len(r.log))
	for i, rec := range r.log {
		out[i] = rec.id
	}
	return out
}

// eqBoth runs script against both schedulers, drains them, requires
// identical logs, and returns the NewScheduler rig.
func eqBoth(t *testing.T, script func(r *eqRig)) *eqRig {
	t.Helper()
	lanes, heap := &eqRig{s: NewScheduler()}, &eqRig{s: NewHeapScheduler()}
	script(lanes)
	script(heap)
	drain(lanes.s)
	drain(heap.s)
	eqCompare(t, lanes.log, heap.log)
	return lanes
}

func eqWantIDs(t *testing.T, r *eqRig, want ...int) {
	t.Helper()
	got := r.ids()
	if len(got) != len(want) {
		t.Fatalf("dispatched ids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched ids %v, want %v", got, want)
		}
	}
}

// The lane mechanics, one directed case each. Every case also runs on
// the heap alone and must match it.
func TestLaneEquivalence(t *testing.T) {
	t.Run("PureFIFO", func(t *testing.T) {
		// Non-decreasing times on one opcode: every insert is a tail
		// append, the heap is never touched.
		heapPending := map[*Scheduler]int{}
		r := eqBoth(t, func(r *eqRig) {
			for i := 0; i < 1000; i++ {
				r.actor(Time(i/2)*Nanosecond, 3, i)
			}
			heapPending[r.s] = r.s.QueueStats().HeapPending
		})
		if st := r.s.QueueStats(); st.LaneInserts != 1000 || st.LaneOverflows != 0 || heapPending[r.s] != 0 {
			t.Fatalf("pure FIFO class left its lane: %+v", st)
		}
		for i, id := range r.ids() {
			if id != i {
				t.Fatalf("dispatch %d fired id %d", i, id)
			}
		}
	})

	t.Run("AntiFIFO", func(t *testing.T) {
		// Strictly decreasing times: once the lane is longer than the
		// walk bound every insert belongs before all of it and must
		// overflow.
		const n = 1000
		r := eqBoth(t, func(r *eqRig) {
			for i := 0; i < n; i++ {
				r.actor(Time(n-i)*Nanosecond, 3, i)
			}
		})
		st := r.s.QueueStats()
		if st.LaneInserts != laneWalkMax+1 || st.LaneOverflows != n-laneWalkMax-1 {
			t.Fatalf("anti-FIFO class should overflow to the heap: %+v", st)
		}
		for i, id := range r.ids() {
			if id != n-1-i {
				t.Fatalf("dispatch %d fired id %d, want %d", i, id, n-1-i)
			}
		}
	})

	t.Run("WalkBound", func(t *testing.T) {
		// An insert that sorts before the last laneWalkMax residents is
		// placed; one place further is refused, and the refusing lane
		// then backs off: out-of-order inserts bypass it, in-order ones
		// still append.
		s := NewScheduler()
		r := &eqRig{s: s}
		for i := 0; i < 10; i++ {
			r.actor(Time(10+i)*Nanosecond, 1, i)
			r.actor(Time(10+i)*Nanosecond, 2, 10+i)
		}
		r.actor(Time(19-laneWalkMax)*Nanosecond, 1, 100)
		if st := s.QueueStats(); st.LaneInserts != 21 || st.LaneOverflows != 0 {
			t.Fatalf("insert before the last %d residents was refused: %+v", laneWalkMax, st)
		}
		r.actor(Time(18-laneWalkMax)*Nanosecond, 2, 101)
		if st := s.QueueStats(); st.LaneInserts != 21 || st.LaneOverflows != 1 {
			t.Fatalf("insert before the last %d residents was not refused: %+v", laneWalkMax+1, st)
		}
		r.actor(18*Nanosecond+1, 1, 102) // one place out of order: walked in
		r.actor(18*Nanosecond+1, 2, 103) // same, but lane 2 is backing off
		r.actor(30*Nanosecond, 2, 104)   // in order: appends regardless
		if st := s.QueueStats(); st.LaneInserts != 23 || st.LaneOverflows != 2 || st.HeapPending != 2 {
			t.Fatalf("want two refusals resident in the heap: %+v", st)
		}
		drain(s)
		eqWantIDs(t, r, 0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 101, 5, 15, 100, 6, 16, 7, 17, 8, 18, 102, 103, 9, 19, 104)
	})

	t.Run("SameTimestampSeqDecides", func(t *testing.T) {
		// A lane head and the heap's root at one timestamp, in both
		// schedule orders, plus two lanes tied: seq alone decides.
		r := eqBoth(t, func(r *eqRig) {
			r.closure(5*Nanosecond, 0)
			r.actor(5*Nanosecond, 1, 1)
			r.actor(7*Nanosecond, 2, 2)
			r.closure(7*Nanosecond, 3)
			r.actor(9*Nanosecond, 4, 4)
			r.actor(9*Nanosecond, 3, 5)
			r.closure(9*Nanosecond, 6)
			r.actor(9*Nanosecond, 4, 7)
		})
		eqWantIDs(t, r, 0, 1, 2, 3, 4, 5, 6, 7)
	})

	t.Run("CancelPositions", func(t *testing.T) {
		// Cancel a lane's head, middle, tail and only element, and the
		// heap's root; the survivors fire in order and the key caches
		// follow.
		r := eqBoth(t, func(r *eqRig) {
			var ev []Event
			for i := 0; i < 6; i++ {
				ev = append(ev, r.actor(Time(10+i)*Nanosecond, 2, i))
			}
			only := r.actor(3*Nanosecond, 5, 6)
			heapMin := r.closure(4*Nanosecond, 7)
			r.closure(8*Nanosecond, 8)
			for _, e := range []Event{ev[0], ev[3], ev[5], only, heapMin} {
				if !e.Cancel() {
					t.Fatal("Cancel of a pending event returned false")
				}
				if e.Cancel() || e.Pending() {
					t.Fatal("cancelled event still cancellable or pending")
				}
			}
			if r.s.Pending() != 4 {
				t.Fatalf("Pending() = %d after cancels, want 4", r.s.Pending())
			}
			r.actor(16*Nanosecond, 2, 9) // the lane still appends after losing its tail
			r.actor(2*Nanosecond, 5, 10) // and the emptied lane accepts a new head
		})
		eqWantIDs(t, r, 10, 8, 1, 2, 4, 9)
	})

	t.Run("RunUntilOnLaneHead", func(t *testing.T) {
		// Run(until) with until exactly on a lane head's time fires it,
		// and nothing later, in lanes or heap.
		r := eqBoth(t, func(r *eqRig) {
			r.actor(10*Nanosecond, 1, 0)
			r.actor(10*Nanosecond+1, 1, 1)
			r.closure(10*Nanosecond+1, 2)
			r.s.Run(10 * Nanosecond)
			if got := r.ids(); len(got) != 1 || got[0] != 0 {
				t.Fatalf("Run(10ns) fired %v, want [0]", got)
			}
			if r.s.Now() != 10*Nanosecond || r.s.Pending() != 2 {
				t.Fatalf("after Run(10ns): now %v, pending %d", r.s.Now(), r.s.Pending())
			}
		})
		eqWantIDs(t, r, 0, 1, 2)
	})

	t.Run("RebuildWhileLanesPopulated", func(t *testing.T) {
		// Grow the heap through several reallocations of its array with
		// every lane populated, then drain it by dispatch: the lanes are
		// untouched and the merged order holds throughout.
		heapPending := map[*Scheduler]int{}
		r := eqBoth(t, func(r *eqRig) {
			id := 0
			for i := 0; i < 400; i++ {
				r.actor(Time(i)*Microsecond, uint8(i%eqOpcodes), id)
				id++
			}
			for i := 0; i < 2000; i++ {
				r.closure(Time((i*7919)%400000)*Nanosecond, id)
				id++
			}
			heapPending[r.s] = r.s.QueueStats().HeapPending
		})
		if st := r.s.QueueStats(); heapPending[r.s] != 2000 || st.LaneInserts != 400 {
			t.Fatalf("want 2000 heap residents beside 400 lane residents (had %d): %+v", heapPending[r.s], st)
		}
		for i := 1; i < len(r.log); i++ {
			if r.log[i].at < r.log[i-1].at {
				t.Fatalf("dispatch %d went back in time: %v after %v", i, r.log[i].at, r.log[i-1].at)
			}
		}
	})

	t.Run("StaleHandleLaneToHeap", func(t *testing.T) {
		// A slot that served a lane resident is recycled for a heap
		// resident (and back): handles to the earlier tenants stay inert.
		r := eqBoth(t, func(r *eqRig) {
			a := r.actor(5*Nanosecond, 1, 0)
			if !a.Cancel() {
				t.Fatal("Cancel of a pending lane event returned false")
			}
			c := r.closure(6*Nanosecond, 1) // reuses a's slot, in the heap
			if c.slot != a.slot {
				t.Fatalf("slot %d not recycled (got %d)", a.slot, c.slot)
			}
			if a.Cancel() || a.Pending() {
				t.Fatal("stale lane handle touched the slot's heap tenant")
			}
			r.s.Run(6 * Nanosecond)          // c fires; the slot is free again
			b := r.actor(9*Nanosecond, 1, 2) // third tenant, back in a lane
			if b.slot != c.slot {
				t.Fatalf("slot %d not recycled (got %d)", c.slot, b.slot)
			}
			if c.Cancel() || c.Pending() || a.Cancel() {
				t.Fatal("stale handle touched the slot's lane tenant")
			}
			if !b.Pending() || b.s.slots[b.slot].at != 9*Nanosecond {
				t.Fatal("live tenant disturbed by stale handles")
			}
		})
		eqWantIDs(t, r, 1, 2)
	})
}
