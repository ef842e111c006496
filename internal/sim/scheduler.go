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

// nilSlot terminates slot chains (lanes, bucket lists, the free list).
const nilSlot = ^uint32(0)

// eventSlot is one pooled event. Slots live in Scheduler.slots and are
// addressed by index; cancelled and fired slots are cleared (callback
// references dropped so the GC can reclaim captured state) and recycled
// through the free list. gen increments on every recycle so stale Event
// handles can never touch a reused slot.
type eventSlot struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among events with equal timestamps
	a, b    uint64
	fn      func()
	actor   Actor
	next    uint32 // lane / bucket chain successor, free-list link
	prev    uint32 // lane predecessor; heap position under the heap discipline
	gen     uint32
	code    uint8
	lane    uint8 // which lane holds the slot; calLane for a calendar resident
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

// At returns the simulated time the event is scheduled for, or 0 if the
// event already fired, was cancelled, or is the zero Event.
func (e Event) At() Time {
	if !e.Pending() {
		return 0
	}
	return e.s.slots[e.slot].at
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
	switch {
	case s.heapMode:
		s.heapRemove(e.slot)
	case sl.lane == calLane:
		s.calUnlink(e.slot)
		s.calSize--
		if s.shrinkDue() {
			s.rebuild(len(s.buckets) / 2)
		} else if e.slot == s.head[calLane] {
			s.calRefreshMin(s.now)
		}
	default:
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
// Two queue disciplines share the same pooled-slot machinery and produce
// byte-identical dispatch orders (total order by (time, seq)):
//
//   - NewScheduler: FIFO lanes in front of a calendar queue (Brown
//     1988). An actor event is offered to the lane its opcode names —
//     the model's pipeline stages each schedule at now + a constant, so
//     within an opcode times are nearly monotone and the insert is a
//     tail append (lanes.go). Closures, and actor events a lane refuses,
//     hash into power-of-two-width time buckets holding short sorted
//     chains (calqueue.go), sized and recalibrated deterministically
//     from the calendar's own traffic. Dispatch pops the (time, seq)
//     minimum over the lane heads and the calendar's minimum.
//   - NewHeapScheduler: a binary heap over slot indices — the reference
//     discipline, kept for equivalence tests and benchmark baselines.
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

	// Queue discipline: lanes + calendar buckets by default, binary heap
	// when heapMode is set.
	heapMode bool
	heap     []uint32

	// head[l] is the first slot of lane l and, at index calLane, the
	// calendar's minimum (nilSlot when the source is empty); headAt and
	// headSeq cache its (time, seq) key — (maxTime, ^0) when empty,
	// which sorts after any real event — so dispatch picks the next
	// event from adjacent keys without touching a slot. minLane is the
	// lane whose head sorts first, or -1 when a head has departed since
	// it was last found (see laneDropHead).
	head    [numLanes + 1]uint32
	headAt  [numLanes + 1]Time
	headSeq [numLanes + 1]uint64
	minLane int

	// FIFO lanes: doubly linked slot lists sorted by (time, seq).
	// laneSkip[l] > 0 sends that many out-of-order inserts straight to
	// the calendar after a refused walk (see laneBypass).
	laneTail [numLanes]uint32
	laneSkip [numLanes]uint32

	// Calendar queue state: len(buckets) is a power of two, bucket width
	// is 1<<shift picoseconds, bucket(t) = (t>>shift)&mask. calSize
	// counts calendar residents.
	buckets []uint32
	shift   uint
	mask    uint64
	calSize int

	// Deterministic width statistics: the mean gap between calendar pops
	// over the last recalibration window. Depends only on the event
	// sequence, so resizes and recalibrations can never perturb
	// determinism.
	calPops     uint64
	windowStart Time
	calGap      Time

	stats QueueStats

	scratch []uint32 // rebuild buffer
}

// QueueStats reports how the default discipline filed its events. Every
// field is a function of the event sequence alone, so the figures are
// byte-deterministic per seed. All zero under NewHeapScheduler.
type QueueStats struct {
	LaneInserts      uint64 // actor events linked into a FIFO lane
	LaneOverflows    uint64 // actor events a lane refused, filed in the calendar
	CalendarPending  int    // events resident in the calendar now
	CalendarRebuilds uint64 // bucket-array resizes and width recalibrations
}

// NewScheduler returns an empty scheduler at time zero using the default
// discipline (FIFO lanes ahead of a calendar queue).
func NewScheduler() *Scheduler {
	s := &Scheduler{free: nilSlot, shift: initialShift}
	s.buckets = newBuckets(initialBuckets)
	s.mask = initialBuckets - 1
	for src := range s.head {
		s.clearHead(src)
	}
	for l := range s.laneTail {
		s.laneTail[l] = nilSlot
	}
	return s
}

// NewHeapScheduler returns an empty scheduler using the binary-heap
// reference discipline. Dispatch order is identical to NewScheduler's;
// only the per-operation cost differs (O(log n) with index swaps).
func NewHeapScheduler() *Scheduler {
	return &Scheduler{free: nilSlot, heapMode: true}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events dispatched so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.size }

// HighWaterPending returns the largest queue depth ever reached.
func (s *Scheduler) HighWaterPending() int { return s.highWater }

// clearHead marks source src (a lane, or calLane) empty in the key cache.
func (s *Scheduler) clearHead(src int) {
	s.head[src], s.headAt[src], s.headSeq[src] = nilSlot, maxTime, ^uint64(0)
}

// QueueStats returns the queue's self-report. See QueueStats.
func (s *Scheduler) QueueStats() QueueStats {
	st := s.stats
	st.CalendarPending = s.calSize
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
// list. Dropping fn/actor here is load-bearing twice over: the GC can
// reclaim captured state immediately, and the bumped generation
// invalidates every outstanding handle to the old event.
func (s *Scheduler) release(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.actor = nil
	sl.pending = false
	sl.gen++
	sl.next = s.free
	s.free = idx
}

// schedule files one event. lane is the FIFO lane to offer it to, or
// calLane to send it straight to the calendar.
func (s *Scheduler) schedule(t Time, fn func(), act Actor, lane int, code uint8, a, b uint64) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at = t
	sl.seq = s.seq
	s.seq++
	sl.fn = fn
	sl.actor = act
	sl.code = code
	sl.a, sl.b = a, b
	sl.pending = true
	switch {
	case s.heapMode:
		s.heapPush(idx)
	case lane == calLane:
		s.calInsert(idx)
	case !s.laneBypass(lane, t) && s.laneInsert(idx, lane):
		s.stats.LaneInserts++
	default:
		s.stats.LaneOverflows++
		s.calInsert(idx)
	}
	s.size++
	if s.size > s.highWater {
		s.highWater = s.size
	}
	return Event{s: s, slot: idx, gen: sl.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering
// time would corrupt every downstream measurement.
func (s *Scheduler) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.schedule(t, fn, nil, calLane, 0, 0, 0)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtActor schedules act.OnEvent(code, a, b) at absolute time t without
// allocating: the opcode and arguments live in the pooled slot.
func (s *Scheduler) AtActor(t Time, act Actor, code uint8, a, b uint64) Event {
	if act == nil {
		panic("sim: nil event actor")
	}
	return s.schedule(t, nil, act, int(code&(numLanes-1)), code, a, b)
}

// AfterActor schedules act.OnEvent(code, a, b) to run d after the
// current time. See AtActor.
func (s *Scheduler) AfterActor(d Time, act Actor, code uint8, a, b uint64) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtActor(s.now+d, act, code, a, b)
}

// dispatch fires slot idx: advances the clock, recycles the slot, then
// invokes the callback. The slot is released before the call so a
// callback rescheduling immediately (the common periodic pattern) reuses
// it, and so the fired event's own handle is already stale inside the
// callback.
func (s *Scheduler) dispatch(idx uint32) {
	sl := &s.slots[idx]
	s.now = sl.at
	fn, act, code, a, b := sl.fn, sl.actor, sl.code, sl.a, sl.b
	s.size--
	s.release(idx)
	s.processed++
	if act != nil {
		act.OnEvent(code, a, b)
	} else {
		fn()
	}
}

// popLE removes and returns the earliest pending slot if its time is at
// or before `until`: the (time, seq) minimum of the earliest lane head
// and the calendar's minimum, both read from the key cache. Which source
// holds an event never enters the comparison, so filing is free to be a
// cost decision.
func (s *Scheduler) popLE(until Time) (uint32, bool) {
	if s.heapMode {
		return s.heapPopLE(until)
	}
	if s.size == 0 {
		return 0, false
	}
	if s.minLane < 0 {
		s.findMinLane()
	}
	src := s.minLane
	if t, c := s.headAt[src], s.headAt[calLane]; c < t || c == t && s.headSeq[calLane] < s.headSeq[src] {
		src = calLane
	}
	if s.headAt[src] > until {
		return 0, false
	}
	if src == calLane {
		return s.calPop(), true
	}
	return s.lanePop(src), true
}

const maxTime = Time(1<<63 - 1)

// Step dispatches the single earliest event. It returns false when the
// queue is empty.
func (s *Scheduler) Step() bool {
	idx, ok := s.popLE(maxTime)
	if !ok {
		return false
	}
	s.dispatch(idx)
	return true
}

// Run dispatches events until no event at or before `until` remains,
// then advances the clock to exactly `until`. Events scheduled during
// the run are honoured if they fall within the horizon.
func (s *Scheduler) Run(until Time) {
	if until < s.now {
		panic(fmt.Sprintf("sim: Run(%v) before now %v", until, s.now))
	}
	for {
		idx, ok := s.popLE(until)
		if !ok {
			break
		}
		s.dispatch(idx)
	}
	s.now = until
}

// RunFor advances the simulation by d. See Run.
func (s *Scheduler) RunFor(d Time) { s.Run(s.now + d) }

// Drain dispatches every remaining event regardless of timestamp.
// Intended for tests; production experiments always run to a horizon.
func (s *Scheduler) Drain() {
	for s.Step() {
	}
}

// slotLess orders slots by (time, seq): the total dispatch order both
// queue disciplines implement.
func (s *Scheduler) slotLess(i, j uint32) bool {
	a, b := &s.slots[i], &s.slots[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
