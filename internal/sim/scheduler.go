package sim

import "fmt"

// Actor is the allocation-free event target. Instead of capturing state
// in a closure (one heap allocation per schedule), a long-lived object —
// a port, a device, a wire endpoint — implements OnEvent and dispatches
// on a small opcode, with two uint64 arguments carrying the payload
// (a 64-bit PCS block, a counter slot, a message body). Storing a
// pointer-typed Actor in an event slot does not allocate, which is what
// makes the steady-state simulation loop zero-alloc.
type Actor interface {
	OnEvent(code uint8, a, b uint64)
}

// funcActor carries a closure (At/After) through the actor path. A func
// value is pointer-shaped, so storing it in the slot's Actor does not
// allocate.
type funcActor func()

func (f funcActor) OnEvent(uint8, uint64, uint64) { f() }

// nilSlot terminates slot chains (lanes, the free list).
const nilSlot = ^uint32(0)

// Key is an event's place among the events due at one instant: they
// fire in (From, Seq) order, where From is the instant the event was
// scheduled at and Seq its sequence number. Seq grows with every
// schedule, and so with From, so for events scheduled the ordinary way
// the order is the schedule order. Reserve takes the key an event
// scheduled now would get; AtActorKey files an event at a key reserved
// earlier, or at one whose From lies ahead (see AtActorKey).
type Key struct {
	From Time
	Seq  uint64
}

// eventSlot is one pooled event. Slots live in Scheduler.slots and are
// addressed by index; cancelled and fired slots are cleared (callback
// references dropped so the GC can reclaim captured state) and recycled
// through the free list. gen increments on every recycle so stale Event
// handles can never touch a reused slot.
type eventSlot struct {
	at      Time
	key     Key // among equal timestamps, dispatch goes by key
	a, b    uint64
	actor   Actor  // a funcActor for a closure
	next    uint32 // lane successor, free-list link
	prev    uint32 // lane predecessor; heap position for a heap resident
	gen     uint32
	code    uint8
	lane    uint8 // which lane holds the slot; heapSrc for a heap resident
	pending bool
}

// Event is a value handle to a scheduled callback. Events are
// single-shot; cancelling an event that already fired (or was already
// cancelled) is a no-op returning false, even if the underlying pooled
// slot has since been recycled for a different event — handles carry the
// slot generation, so a stale handle can never cancel a stranger. The
// zero Event is inert: Cancel reports false, Pending reports false.
type Event struct {
	s    *Scheduler
	slot uint32
	gen  uint32
}

// Pending reports whether the event is still scheduled (not yet fired
// and not cancelled).
func (e Event) Pending() bool {
	return e.s != nil && e.s.slots[e.slot].gen == e.gen && e.s.slots[e.slot].pending
}

// Cancel removes the event from the scheduler, clears its callback
// references, and recycles its slot immediately — a cancelled event
// retains nothing. Returns false if the event already fired or was
// already cancelled.
func (e Event) Cancel() bool {
	s := e.s
	if s == nil {
		return false
	}
	sl := &s.slots[e.slot]
	if sl.gen != e.gen || !sl.pending {
		return false
	}
	if sl.lane == heapSrc {
		s.heapRemove(e.slot)
	} else {
		s.laneUnlink(e.slot)
	}
	s.size--
	s.release(e.slot)
	return true
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe
// for concurrent use; simulations are single-goroutine by design so that
// a seed fully determines a run.
//
// Dispatch follows the total order (time, Key). An actor event is
// offered to the FIFO lane its opcode names — the model's pipeline
// stages each schedule at now + a constant, so within an opcode times
// are nearly monotone and the insert is a tail append (lanes.go).
// Closures, and actor events a lane refuses, go to a binary heap over
// slot indices (heap.go). Dispatch pops the (time, Key) minimum over the
// lane heads and the heap's root. NewHeapScheduler turns the lanes off:
// every event takes the heap, the reference the lanes are tested against.
type Scheduler struct {
	now  Time
	seq  uint64
	size int

	// processed counts events dispatched since construction, for reporting.
	processed uint64
	// highWater is the largest queue depth ever reached, for reporting.
	highWater int

	// Pooled event storage. free heads the recycle list through .next.
	slots []eventSlot
	free  uint32

	// lanesOff files every event in the heap (NewHeapScheduler).
	lanesOff bool
	// heap is a binary min-heap of slot indices by (time, Key).
	heap []uint32

	// head[l] is the first slot of lane l and, at index heapSrc, the
	// heap's root (nilSlot when the source is empty); headAt and headKey
	// cache its (time, Key) so dispatch picks the next event from
	// adjacent keys without touching a slot. An empty source reads
	// headAt maxTime, which no event is scheduled at, so it sorts after
	// every real event whatever its stale Key. minLane is the lane whose
	// head sorts first, or -1 when a head has departed since it was last
	// found (see laneDropHead).
	head    [numLanes + 1]uint32
	headAt  [numLanes + 1]Time
	headKey [numLanes + 1]Key
	minLane int

	// FIFO lanes: doubly linked slot lists sorted by (time, Key).
	// laneSkip[l] > 0 sends that many out-of-order inserts straight to
	// the heap after a refused walk (see laneBypass).
	laneTail [numLanes]uint32
	laneSkip [numLanes]uint32

	stats QueueStats

	// cur is the key of the event being dispatched, idleKey between
	// dispatches (see Due). afterRun holds the AfterRun hooks.
	cur      Key
	afterRun []func()
}

// idleKey sorts after every key an event can carry: the bound Due
// applies between dispatches.
var idleKey = Key{From: maxTime, Seq: ^uint64(0)}

// QueueStats reports how the scheduler filed its events. Every field is
// a function of the event sequence alone, so the figures are
// byte-deterministic per seed. The lane counts stay zero under
// NewHeapScheduler.
type QueueStats struct {
	LaneInserts   uint64 // actor events linked into a FIFO lane
	LaneOverflows uint64 // actor events a lane refused, filed in the heap
	HeapPending   int    // events resident in the heap now
	// ByLane counts the actor events offered to each lane, linked or
	// refused: the events of each opcode & 7.
	ByLane [numLanes]uint64
}

// NewScheduler returns an empty scheduler at time zero: FIFO lanes
// ahead of the heap.
func NewScheduler() *Scheduler {
	s := &Scheduler{free: nilSlot, cur: idleKey}
	for src := range s.head {
		s.clearHead(src)
	}
	for l := range s.laneTail {
		s.laneTail[l] = nilSlot
	}
	return s
}

// NewHeapScheduler returns a NewScheduler with the lanes off: every
// event goes to the heap. Dispatch order is identical; only the
// per-operation cost differs (O(log n) with index swaps).
func NewHeapScheduler() *Scheduler {
	s := NewScheduler()
	s.lanesOff = true
	return s
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events dispatched so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.size }

// HighWaterPending returns the largest queue depth ever reached.
func (s *Scheduler) HighWaterPending() int { return s.highWater }

// clearHead marks source src (a lane, or heapSrc) empty in the key cache.
func (s *Scheduler) clearHead(src int) {
	s.head[src], s.headAt[src] = nilSlot, maxTime
}

// cacheHead records slot idx as the head of source src in the key cache.
func (s *Scheduler) cacheHead(src int, idx uint32) {
	sl := &s.slots[idx]
	s.head[src], s.headAt[src], s.headKey[src] = idx, sl.at, sl.key
}

// headLess reports whether source i's head sorts before source j's.
func (s *Scheduler) headLess(i, j int) bool {
	if s.headAt[i] != s.headAt[j] {
		return s.headAt[i] < s.headAt[j]
	}
	return s.tieLess(i, j)
}

// tieLess orders the heads of sources i and j when their times are
// equal: by Key.
func (s *Scheduler) tieLess(i, j int) bool { return s.headKey[i].Less(s.headKey[j]) }

// Less reports whether k sorts before o among events due at one instant.
func (k Key) Less(o Key) bool { return k.From < o.From || k.From == o.From && k.Seq < o.Seq }

// QueueStats returns the queue's self-report. See QueueStats.
func (s *Scheduler) QueueStats() QueueStats {
	st := s.stats
	st.HeapPending = len(s.heap)
	for _, n := range st.ByLane {
		st.LaneInserts += n
	}
	st.LaneInserts -= st.LaneOverflows
	return st
}

// alloc pops a recycled slot or grows the arena. Steady-state loops
// reuse slots and never grow, which is what AllocsPerRun == 0 pins.
func (s *Scheduler) alloc() uint32 {
	if s.free != nilSlot {
		idx := s.free
		s.free = s.slots[idx].next
		return idx
	}
	s.slots = append(s.slots, eventSlot{})
	return uint32(len(s.slots) - 1)
}

// release clears a fired or cancelled slot and pushes it on the free
// list. Dropping the actor here is load-bearing twice over: the GC can
// reclaim captured state immediately, and the bumped generation
// invalidates every outstanding handle to the old event.
func (s *Scheduler) release(idx uint32) {
	sl := &s.slots[idx]
	sl.actor = nil
	sl.pending = false
	sl.gen++
	sl.next = s.free
	s.free = idx
}

// schedule files one event at key *k, or at the next key now when k is
// nil (a pointer, so the ordinary path passes one word and AtActor stays
// within the inliner's budget). lane is the FIFO lane to offer it to, or
// heapSrc to send it straight to the heap.
func (s *Scheduler) schedule(t Time, k *Key, act Actor, lane int, code uint8, a, b uint64) Event {
	if t < s.now || t == maxTime {
		panic(pastSchedule{t, s.now})
	}
	if act == nil {
		panic("sim: nil event actor")
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at = t
	if k == nil {
		sl.key = s.Reserve()
	} else {
		sl.key = *k
	}
	sl.actor = act
	sl.code = code
	sl.a, sl.b = a, b
	sl.pending = true
	if lane == heapSrc || s.lanesOff {
		s.heapPush(idx)
	} else {
		s.stats.ByLane[lane]++
		if s.laneBypass(lane, t) || !s.laneInsert(idx, lane) {
			s.stats.LaneOverflows++
			s.heapPush(idx)
		}
	}
	s.size++
	if s.size > s.highWater {
		s.highWater = s.size
	}
	return Event{s: s, slot: idx, gen: sl.gen}
}

// Reserve takes the key the next event scheduled now would get, for an
// event filed later with AtActorKey: a stage of a pipeline that is
// settled ahead of time keeps the place among same-instant events that
// scheduling it now would have given it.
func (s *Scheduler) Reserve() Key {
	k := Key{From: s.now, Seq: s.seq}
	s.seq++
	return k
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering
// time would corrupt every downstream measurement.
func (s *Scheduler) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.schedule(t, nil, funcActor(fn), heapSrc, 0, 0, 0)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) Event {
	if d < 0 {
		panic(negativeDelay(d))
	}
	return s.At(s.now+d, fn)
}

// AtActor schedules act.OnEvent(code, a, b) at absolute time t without
// allocating: the opcode and arguments live in the pooled slot.
func (s *Scheduler) AtActor(t Time, act Actor, code uint8, a, b uint64) Event {
	return s.schedule(t, nil, act, int(code&(numLanes-1)), code, a, b)
}

// AtActorKey is AtActor filed at key k instead of the next one: among
// the events due at t it fires in k's place. k.Seq comes from Reserve;
// k.From may be the instant a stage that is skipped would have run at,
// so that the event sorts as if that stage had scheduled it — before
// any event scheduled after k.From, after any scheduled before it. k.From
// must not lie after t.
func (s *Scheduler) AtActorKey(t Time, k Key, act Actor, code uint8, a, b uint64) Event {
	if k.From > t {
		panic(keyAhead{k.From, t})
	}
	return s.schedule(t, &k, act, int(code&(numLanes-1)), code, a, b)
}

// AfterActor schedules act.OnEvent(code, a, b) to run d after the
// current time. See AtActor.
func (s *Scheduler) AfterActor(d Time, act Actor, code uint8, a, b uint64) Event {
	if d < 0 {
		panic(negativeDelay(d))
	}
	return s.AtActor(s.now+d, act, code, a, b)
}

const maxTime = Time(1<<63 - 1)

// Step dispatches the single earliest event. It returns false when the
// queue is empty.
func (s *Scheduler) Step() bool { return s.run(maxTime, true) }

// Run dispatches events until no event at or before `until` remains,
// then advances the clock to exactly `until` and runs the AfterRun
// hooks. Events scheduled during the run are honoured if they fall
// within the horizon.
func (s *Scheduler) Run(until Time) {
	if until < s.now {
		panic(fmt.Sprintf("sim: Run(%v) before now %v", until, s.now))
	}
	s.run(until, false)
	s.now = until
	for _, fn := range s.afterRun {
		fn()
	}
}

// run dispatches events in (time, Key) order while the earliest is at
// or before until, stopping after the first when once is set, and
// reports whether it dispatched any. Each pass pops the minimum of the
// earliest lane head and the heap's root, both read from the key cache:
// which source holds an event never enters the comparison, so filing is
// free to be a cost decision. The popped slot is released before its
// callback runs, so a callback rescheduling at once (the common periodic
// pattern) reuses it, and the fired event's own handle is already stale
// inside the callback. The pop and the dispatch are written out here,
// not called: both are over the inliner's budget, and a call each per
// event is measurable on the beacon path.
func (s *Scheduler) run(until Time, once bool) bool {
	fired := false
	for s.size != 0 {
		if s.minLane < 0 {
			s.findMinLane()
		}
		src := s.minLane
		if t, h := s.headAt[src], s.headAt[heapSrc]; h < t || h == t && s.tieLess(heapSrc, src) {
			src = heapSrc
		}
		if s.headAt[src] > until {
			break
		}
		var idx uint32
		if src == heapSrc {
			idx = s.heapPop()
		} else {
			idx = s.lanePop(src)
		}
		sl := &s.slots[idx]
		s.now, s.cur = sl.at, sl.key
		act, code, a, b := sl.actor, sl.code, sl.a, sl.b
		s.size--
		s.release(idx)
		s.processed++
		act.OnEvent(code, a, b)
		fired = true
		if once {
			break
		}
	}
	s.cur = idleKey
	return fired
}

// Due reports whether an event at (t, k) would have been dispatched
// already: t has passed, or t is now and k sorts before the event being
// dispatched — before every key, between dispatches. A model that
// defers work settled ahead of time (core's per-device inbox) applies
// exactly what is due before anything reads the state it changes, so
// the deferred work lands in its (time, Key) place.
func (s *Scheduler) Due(t Time, k Key) bool { return t < s.now || t == s.now && k.Less(s.cur) }

// AfterRun installs fn to run each time Run returns, after the clock
// has reached the horizon: the hook that applies deferred work that is
// due by then (see Due), so nothing read after a run lags it.
func (s *Scheduler) AfterRun(fn func()) { s.afterRun = append(s.afterRun, fn) }

// RunFor advances the simulation by d. See Run.
func (s *Scheduler) RunFor(d Time) { s.Run(s.now + d) }

// pastSchedule, negativeDelay and keyAhead are the scheduler's panic
// values for a modelling bug. Being plain values rather than formatted
// strings keeps the scheduling calls within the inliner's budget; the
// text is built only if the panic is printed.
type (
	pastSchedule  struct{ at, now Time }
	negativeDelay Time
	keyAhead      struct{ from, at Time }
)

func (e pastSchedule) Error() string {
	return fmt.Sprintf("sim: scheduling at %v (now %v)", e.at, e.now)
}
func (e negativeDelay) Error() string { return fmt.Sprintf("sim: negative delay %v", Time(e)) }
func (e keyAhead) Error() string {
	return fmt.Sprintf("sim: key from %v for an event at %v", e.from, e.at)
}

// slotLess orders slots by (time, Key): the total dispatch order the
// lanes and the heap both keep.
func (s *Scheduler) slotLess(i, j uint32) bool {
	a, b := &s.slots[i], &s.slots[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key.Less(b.key)
}
