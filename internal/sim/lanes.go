package sim

// FIFO lanes: the fast path in front of the heap (heap.go).
//
// The model schedules almost everything at now + a per-stage constant
// (the beacon period; a block's flight through the TX pipeline, the
// cable and the RX pipeline; the CDC crossing), so the events of one
// opcode arrive nearly in time order. A lane is a doubly linked
// list of pooled slots sorted by (time, Key); an actor event is offered
// to lane code&(numLanes-1) and placed by walking back from the tail —
// a slot written moments ago — instead of sifting through the heap.
//
// Lanes are advisory. Dispatch takes the (time, Key) minimum over the
// lane heads (tracked as minLane) and the heap's root (Scheduler.run),
// and every source is itself sorted by (time, Key), so the event a lane
// holds would have fired at exactly the same point from the heap. Lane
// choice, the walk bound and the back-off below change cost only, never
// order.

const (
	// numLanes must be a power of two (lane = opcode & (numLanes-1)).
	numLanes = 8
	// heapSrc is the heap's index in Scheduler.head/headAt/headKey and
	// the eventSlot.lane value of a heap resident.
	heapSrc = numLanes
	// laneWalkMax bounds the links an out-of-order insert may walk back
	// from the tail before the lane refuses it: ±100 ppm of skew between
	// ports reorders a class by a few places, anything further is not
	// FIFO traffic and belongs in the heap.
	laneWalkMax = 4
	// laneBackoff is how many further out-of-order inserts a lane sends
	// straight to the heap after refusing one, so a class that is
	// not FIFO at all (many skewed periods on one opcode) pays the cold
	// walk once per laneBackoff+1 inserts. In-order inserts still append.
	laneBackoff = 32
)

// laneBypass reports whether lane l, backing off after a refusal, sends
// an insert at time t straight to the heap: it does so for the next
// laneBackoff out-of-order inserts. Small enough to inline, so in the
// non-FIFO regime a bypassed insert costs no call.
func (s *Scheduler) laneBypass(l int, t Time) bool {
	if s.laneSkip[l] == 0 {
		return false
	}
	if tail := s.laneTail[l]; tail == nilSlot || s.slots[tail].at <= t {
		return false
	}
	s.laneSkip[l]--
	return true
}

// laneInsert links slot idx into lane l, reporting false if the lane
// refuses it (the caller then files it in the heap).
func (s *Scheduler) laneInsert(idx uint32, l int) bool {
	sl := &s.slots[idx]
	cur := s.laneTail[l]
	if cur == nilSlot || s.slotLess(cur, idx) {
		sl.prev, sl.next = cur, nilSlot
		s.laneTail[l] = idx
		if cur == nilSlot {
			s.laneNewHead(l, idx)
		} else {
			s.slots[cur].next = idx
		}
		sl.lane = uint8(l)
		return true
	}
	// cur sorts after the new slot; find the first predecessor that
	// does not.
	for i := 0; i < laneWalkMax; i++ {
		p := s.slots[cur].prev
		if p != nilSlot && s.slotLess(idx, p) {
			cur = p
			continue
		}
		sl.prev, sl.next = p, cur
		s.slots[cur].prev = idx
		if p == nilSlot {
			s.laneNewHead(l, idx)
		} else {
			s.slots[p].next = idx
		}
		sl.lane = uint8(l)
		return true
	}
	s.laneSkip[l] = laneBackoff
	return false
}

// laneNewHead records freshly scheduled slot idx as the head of lane l.
func (s *Scheduler) laneNewHead(l int, idx uint32) {
	s.cacheHead(l, idx)
	if s.minLane >= 0 && s.headLess(l, s.minLane) {
		s.minLane = l
	}
}

// laneDropHead makes the successor n (nilSlot for none) of lane l's
// departing head the new head. The earliest lane head is re-found by
// the next pop (Scheduler.run), not here: n's key is usually a cache
// miss, and a scan branching on it now would stall where the dispatched
// callback's work can overlap the miss instead.
func (s *Scheduler) laneDropHead(l int, n uint32) {
	s.minLane = -1
	if n == nilSlot {
		s.laneTail[l] = nilSlot
		// clearHead, spelled out: the call would push lanePop over the
		// inliner's budget and cost the run loop a call per lane pop.
		s.head[l], s.headAt[l] = nilSlot, maxTime
		return
	}
	h := &s.slots[n]
	h.prev = nilSlot
	s.head[l], s.headAt[l], s.headKey[l] = n, h.at, h.key
}

// findMinLane re-finds the lane whose head sorts first.
func (s *Scheduler) findMinLane() {
	best, bt := 0, s.headAt[0]
	for l := 1; l < numLanes; l++ {
		if t := s.headAt[l]; t < bt || t == bt && s.headKey[l].Less(s.headKey[best]) {
			best, bt = l, t
		}
	}
	s.minLane = best
}

// lanePop unlinks and returns the head of lane l.
func (s *Scheduler) lanePop(l int) uint32 {
	idx := s.head[l]
	s.laneDropHead(l, s.slots[idx].next)
	return idx
}

// laneUnlink removes slot idx from its lane in O(1) (Cancel path).
func (s *Scheduler) laneUnlink(idx uint32) {
	sl := &s.slots[idx]
	l := int(sl.lane)
	if sl.prev == nilSlot {
		s.laneDropHead(l, sl.next)
		return
	}
	s.slots[sl.prev].next = sl.next
	if sl.next == nilSlot {
		s.laneTail[l] = sl.prev
	} else {
		s.slots[sl.next].prev = sl.prev
	}
}
