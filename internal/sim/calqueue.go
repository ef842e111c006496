package sim

// Calendar queue (Brown, CACM 1988): the general-purpose store behind
// the FIFO lanes (lanes.go). It holds what has no FIFO structure to
// exploit — closures (samplers, oscillator-wander resamples, chaos
// scripts) and the actor events a lane refused.
//
// Events hash into buckets by bucket(t) = (t >> shift) & mask — the
// bucket width is a power of two picoseconds so the hot path divides by
// shifting. Each bucket holds a chain sorted by (time, seq); with the
// width tracking the mean gap between calendar pops, chains stay O(1)
// and a minimum search scans O(1) buckets. Events further than a full
// bucket rotation ahead ("future years") stay in their bucket and cost
// one head comparison per scan pass until their year arrives.
//
// Determinism: the cached minimum is always the calendar's (time, seq)
// minimum — see the scan invariant on calRefreshMin — and every sizing
// input (population, pop count, pop times) is itself a deterministic
// function of the event sequence. Resizes and width recalibrations can
// change only the constant factors, never the dispatch order, which the
// equivalence property test pins against the heap reference discipline.

const (
	// initialBuckets must be a power of two.
	initialBuckets = 64
	// initialShift gives 2^16 ps ≈ 65.5 ns buckets before any dispatch
	// statistics exist — sized for the dense link bring-up burst.
	initialShift = 16
	// minShift / maxShift clamp adaptation: 2^10 ps ≈ 1 ns to
	// 2^34 ps ≈ 17 ms.
	minShift = 10
	maxShift = 34
	// recalibrateEvery is the recalibration window in calendar pops
	// (power of two): the width is checked against the window's mean
	// pop gap each time it closes.
	recalibrateEvery = 1 << 12
	// minBuckets floors shrinking.
	minBuckets = 16
)

func newBuckets(n int) []uint32 {
	b := make([]uint32, n)
	for i := range b {
		b[i] = nilSlot
	}
	return b
}

func (s *Scheduler) bucketOf(t Time) int {
	return int(uint64(t) >> s.shift & s.mask)
}

// calInsert files slot idx in the calendar: keeps the cached minimum
// current, links the slot into its bucket's sorted chain, and grows the
// bucket array when chains would average more than two. rebuild re-files
// residents through here too, so the minimum test is the full (time,
// seq) order, not the fresh-slot shortcut.
func (s *Scheduler) calInsert(idx uint32) {
	slots := s.slots
	sl := &slots[idx]
	at, seq := sl.at, sl.seq
	sl.lane = calLane
	if c := s.headAt[calLane]; at < c || at == c && seq < s.headSeq[calLane] {
		s.head[calLane], s.headAt[calLane], s.headSeq[calLane] = idx, at, seq
	}
	link := &s.buckets[s.bucketOf(at)]
	for {
		nxt := *link
		if nxt == nilSlot {
			break
		}
		n := &slots[nxt]
		if at < n.at || at == n.at && seq < n.seq {
			break
		}
		link = &n.next
	}
	sl.next = *link
	*link = idx
	s.calSize++
	if s.calSize > 2*len(s.buckets) {
		s.rebuild(2 * len(s.buckets))
	}
}

// calUnlink removes slot idx from its bucket chain (Cancel path). The
// walk is bounded by the chain length, which the width adaptation keeps
// O(1).
func (s *Scheduler) calUnlink(idx uint32) {
	b := s.bucketOf(s.slots[idx].at)
	cur := s.buckets[b]
	if cur == idx {
		s.buckets[b] = s.slots[idx].next
		return
	}
	for {
		nxt := s.slots[cur].next
		if nxt == idx {
			s.slots[cur].next = s.slots[idx].next
			return
		}
		cur = nxt
	}
}

// calPop unlinks and returns the cached minimum — the head of its
// bucket's chain, since chains are sorted — then closes the
// recalibration window if due, shrinks if due, and otherwise finds the
// next minimum (a rebuild does that itself).
func (s *Scheduler) calPop() uint32 {
	idx, at := s.head[calLane], s.headAt[calLane]
	s.buckets[s.bucketOf(at)] = s.slots[idx].next
	s.calSize--
	s.calPops++
	if s.calPops&(recalibrateEvery-1) == 0 && s.closeWindow(at) {
		s.rebuild(len(s.buckets))
	} else if s.shrinkDue() {
		s.rebuild(len(s.buckets) / 2)
	} else {
		s.calRefreshMin(at)
	}
	return idx
}

// closeWindow ends a recalibration window at the pop at time at, and
// reports whether the bucket width has left [half the target, the
// target] for the window's mean pop gap — the calendar's cadence changed
// (e.g. bring-up burst settling into steady sampling). The band leans
// narrow because a bucket too wide lengthens every chain walk while one
// too narrow only adds empty heads to a sequential scan; being one
// power of two deep, it cannot flip-flop on a gap that sits on a
// boundary.
func (s *Scheduler) closeWindow(at Time) bool {
	s.calGap = (at - s.windowStart) / recalibrateEvery
	s.windowStart = at
	if s.calGap <= 0 {
		return false
	}
	t := s.targetShift(0, 0)
	return t < s.shift || t > s.shift+1
}

// shrinkDue reports whether the population has fallen far enough below
// the bucket array to halve it (pop and Cancel paths), so that a minimum
// search over a drained calendar never rotates through an almost empty
// array.
func (s *Scheduler) shrinkDue() bool {
	n := len(s.buckets)
	return n > minBuckets && s.calSize < n/8
}

// calRefreshMin finds the calendar's (time, seq) minimum and caches it.
// from must be at or before every resident's time.
//
// Scan invariant: walking buckets in rotation order from bucket(from),
// the first chain head whose time falls inside the bucket's current
// year window is the calendar's (time, seq) minimum. Proof sketch:
// every resident e has e.at >= from. Suppose head h of the k-th scanned
// bucket has h.at < top_k = (from>>shift + k + 1) << shift, and some
// resident e has e.at < h.at. Then e's bucket index lies j <= k buckets
// ahead of bucket(from); if j < k, pass j inspected that bucket's head —
// which sorts at or before e, hence inside window j — and would have
// stopped there; if j == k, e is in h's bucket and the chain ordering
// makes h sort first. Same-time events always share a bucket, so the
// (time, seq) tie-break never crosses buckets.
//
// If a full rotation finds nothing (every resident is beyond one
// rotation's span — the sparse/idle regime), fall back to a direct
// min scan over the chain heads.
func (s *Scheduler) calRefreshMin(from Time) {
	if s.calSize == 0 {
		s.clearHead(calLane)
		return
	}
	slots, buckets, shift, mask := s.slots, s.buckets, s.shift, s.mask
	best := nilSlot
	year := uint64(from) >> shift
	for end := year + uint64(len(buckets)); year < end; year++ {
		h := buckets[year&mask]
		if h != nilSlot && uint64(slots[h].at) < (year+1)<<shift {
			best = h
			break
		}
	}
	if best == nilSlot {
		for _, h := range buckets {
			if h != nilSlot && (best == nilSlot || s.slotLess(h, best)) {
				best = h
			}
		}
	}
	s.head[calLane], s.headAt[calLane], s.headSeq[calLane] = best, slots[best].at, slots[best].seq
}

// targetShift derives the bucket-width exponent from the mean gap
// between calendar pops: about 4x the gap, so consecutive pops advance
// at most a bucket and chains stay short. The gap is the last closed
// window's; before the first window closes, the mean since time zero
// (bring-up grows the array long before 4 096 pops and its far tail —
// wander resamples a whole period ahead — must not set the width); and
// with nothing popped yet, the current population's span spread so
// chains average O(1).
func (s *Scheduler) targetShift(span Time, size int) uint {
	g := s.calGap
	if g <= 0 && s.calPops > 0 {
		g = s.now / Time(s.calPops)
	}
	if g <= 0 && size > 0 {
		g = span / Time(size)
	}
	if g <= 0 {
		g = 1
	}
	w := uint64(g) * 4
	sh := uint(minShift)
	for sh < maxShift && uint64(1)<<sh < w {
		sh++
	}
	return sh
}

// rebuild resizes to n buckets (power of two), recomputes the width
// and re-files every resident, which re-finds the minimum. Sorted
// insertion is order-independent, so a rebuild never changes dispatch
// order. Lanes are not touched. Every caller passes an n with
// 2n >= calSize, so the re-filing cannot recurse into a growth.
func (s *Scheduler) rebuild(n int) {
	if n < minBuckets {
		n = minBuckets
	}
	s.stats.CalendarRebuilds++
	s.scratch = s.scratch[:0]
	var lo, hi Time
	first := true
	for _, h := range s.buckets {
		for h != nilSlot {
			s.scratch = append(s.scratch, h)
			at := s.slots[h].at
			if first {
				lo, hi = at, at
				first = false
			} else {
				if at < lo {
					lo = at
				}
				if at > hi {
					hi = at
				}
			}
			h = s.slots[h].next
		}
	}
	s.shift = s.targetShift(hi-lo, len(s.scratch))
	if n <= cap(s.buckets) {
		s.buckets = s.buckets[:n]
		for i := range s.buckets {
			s.buckets[i] = nilSlot
		}
	} else {
		s.buckets = newBuckets(n)
	}
	s.mask = uint64(n - 1)
	s.calSize = 0
	s.clearHead(calLane)
	for _, idx := range s.scratch {
		s.calInsert(idx)
	}
}
