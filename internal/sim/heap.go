package sim

// Binary heap over pooled slot indices: the store behind the FIFO lanes
// (lanes.go). It holds what has no FIFO structure to exploit — closures
// (samplers, oscillator-wander resamples, chaos scripts) and the actor
// events a lane refused — and, under NewHeapScheduler, every event. It
// is ordered by slotLess, the (time, Key) dispatch order; slot .prev
// tracks each resident's heap position so Cancel can remove from the
// middle. Every change refreshes the heapSrc entry of the key cache
// from the root, so dispatch compares cached keys only.

// heapPush files slot idx in the heap.
func (s *Scheduler) heapPush(idx uint32) {
	sl := &s.slots[idx]
	sl.lane = heapSrc
	sl.prev = uint32(len(s.heap))
	s.heap = append(s.heap, idx)
	s.heapUp(len(s.heap) - 1)
	if sl.prev == 0 {
		s.cacheHead(heapSrc, idx)
	}
}

// heapPop removes and returns the heap's minimum (the cached head).
func (s *Scheduler) heapPop() uint32 {
	idx := s.head[heapSrc]
	s.heapRemove(idx)
	return idx
}

// heapRemove deletes the resident slot idx (pop and Cancel paths) and
// re-caches the root's key.
func (s *Scheduler) heapRemove(idx uint32) {
	i := int(s.slots[idx].prev)
	last := len(s.heap) - 1
	if i != last {
		s.heapSwap(i, last)
	}
	s.heap = s.heap[:last]
	if i < last && !s.heapDown(i) {
		s.heapUp(i)
	}
	if last == 0 {
		s.clearHead(heapSrc)
		return
	}
	s.cacheHead(heapSrc, s.heap[0])
}

func (s *Scheduler) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.slots[s.heap[i]].prev = uint32(i)
	s.slots[s.heap[j]].prev = uint32(j)
}

func (s *Scheduler) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.slotLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

// heapDown sifts i down, reporting whether it moved.
func (s *Scheduler) heapDown(i int) bool {
	moved := false
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && s.slotLess(s.heap[r], s.heap[l]) {
			small = r
		}
		if !s.slotLess(s.heap[small], s.heap[i]) {
			break
		}
		s.heapSwap(i, small)
		i = small
		moved = true
	}
	return moved
}
