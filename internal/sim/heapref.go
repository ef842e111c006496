package sim

// Binary-heap reference discipline over pooled slot indices: the seed
// engine's data structure (O(log n) sift per operation, index swaps on
// every level) kept behind NewHeapScheduler as a test oracle — for the
// dispatch-order equivalence tests here and in internal/core, and for
// the benchmark's sim.heap_ns_per_event probe. Slot .prev (unused
// otherwise: the heap has no lanes) tracks each pending event's heap
// position so Cancel can remove from the middle.

func (s *Scheduler) heapPush(idx uint32) {
	s.heap = append(s.heap, idx)
	s.slots[idx].prev = uint32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Scheduler) heapPopLE(until Time) (uint32, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	top := s.heap[0]
	if s.slots[top].at > until {
		return 0, false
	}
	s.heapSwap(0, len(s.heap)-1)
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 {
		s.heapDown(0)
	}
	return top, true
}

// heapRemove deletes the pending slot idx from the middle of the heap
// (Cancel path).
func (s *Scheduler) heapRemove(idx uint32) {
	i := int(s.slots[idx].prev)
	last := len(s.heap) - 1
	if i != last {
		s.heapSwap(i, last)
	}
	s.heap = s.heap[:last]
	if i < last {
		if !s.heapDownFrom(i) {
			s.heapUp(i)
		}
	}
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

func (s *Scheduler) heapDown(i int) { s.heapDownFrom(i) }

// heapDownFrom sifts i down, reporting whether it moved.
func (s *Scheduler) heapDownFrom(i int) bool {
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
