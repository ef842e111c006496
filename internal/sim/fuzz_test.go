package sim

import "testing"

// fzWorker replays a fuzz program on one scheduler. The program is a
// byte stream read by the top-level loop (schedule, burst, cancel, run
// to a horizon) and by every callback (which may schedule a child), so
// two workers on the same bytes stay in lockstep exactly as long as
// their schedulers dispatch in the same order.
type fzWorker struct {
	s       *Scheduler
	in      []byte
	log     []eqRecord
	live    []Event // every handle ever issued: cancels hit live and stale ones
	keys    []Key   // by id - 1: the key each event was filed at
	nextID  int
	pending []int // Pending() after each Run horizon
}

// next consumes one program byte; ok is false once the program ends.
func (w *fzWorker) next() (b int, ok bool) {
	if len(w.in) == 0 {
		return 0, false
	}
	b = int(w.in[0])
	w.in = w.in[1:]
	return b, true
}

// fzDelay maps a byte to a delay: tiny (often zero) below 64, so same-time
// ties and near-ties are common, then quadratic up to ≈ 36 µs, so lanes
// see both in-order and out-of-order inserts.
func fzDelay(b int) Time {
	if b < 64 {
		return Time(b / 8)
	}
	return Time(b-64) * Time(b-64) * Nanosecond
}

// spawn schedules the next id at t: a closure when kind names the
// twelfth class, else an actor event on one of eqOpcodes opcodes. Every
// other dozen kinds files the actor event at a key whose From lies
// ahead of now — at now, halfway to t or at t — as a stage settled ahead
// of time is, so it ties with events scheduled later.
func (w *fzWorker) spawn(t Time, kind int) {
	w.nextID++
	id := w.nextID
	var e Event
	k := Key{From: w.s.now, Seq: w.s.seq}
	switch {
	case kind%(eqOpcodes+1) == eqOpcodes:
		e = w.s.At(t, func() { w.fire(id) })
	case kind/(eqOpcodes+1)%2 == 1:
		k = w.s.Reserve()
		k.From += (t - k.From) * Time(kind%3) / 2
		e = w.s.AtActorKey(t, k, w, uint8(kind%(eqOpcodes+1)), uint64(id), 0)
	default:
		e = w.s.AtActor(t, w, uint8(kind%(eqOpcodes+1)), uint64(id), 0)
	}
	w.live = append(w.live, e)
	w.keys = append(w.keys, k)
}

func (w *fzWorker) OnEvent(_ uint8, id, _ uint64) { w.fire(int(id)) }

// fire logs the event, then lets the program decide on one child.
func (w *fzWorker) fire(id int) {
	w.log = append(w.log, eqRecord{at: w.s.Now(), id: id})
	if b, ok := w.next(); ok && b&3 == 0 {
		if d, ok := w.next(); ok {
			w.spawn(w.s.Now()+fzDelay(d), b>>2)
		}
	}
}

// run executes the whole program, then drains.
func (w *fzWorker) run() {
	for {
		op, ok := w.next()
		if !ok {
			break
		}
		arg, ok := w.next()
		if !ok {
			break
		}
		switch op % 6 {
		case 0, 1: // one event
			w.spawn(w.s.Now()+fzDelay(arg), op/6)
		case 2: // same-time burst of 2..5 on mixed classes
			t := w.s.Now() + fzDelay(arg)
			for i := 0; i < 2+op/6%4; i++ {
				w.spawn(t, op/6+i*5)
			}
		case 3: // cancel a handle, live or stale
			if len(w.live) > 0 {
				w.live[arg%len(w.live)].Cancel()
			}
		default: // run to an uneven horizon
			w.s.Run(w.s.Now() + fzDelay(arg)*Time(1+op/6))
			w.pending = append(w.pending, w.s.Pending())
		}
	}
	drain(w.s)
}

// sorted fails unless the log is in (time, Key) order.
func (w *fzWorker) sorted(t *testing.T) {
	t.Helper()
	for i := 1; i < len(w.log); i++ {
		p, c := w.log[i-1], w.log[i]
		pk, ck := w.keys[p.id-1], w.keys[c.id-1]
		if c.at < p.at || c.at == p.at && (ck.From < pk.From || ck.From == pk.From && ck.Seq < pk.Seq) {
			t.Fatalf("dispatch %d out of (time, Key) order: (%v, %+v) after (%v, %+v)", i, c.at, ck, p.at, pk)
		}
	}
}

// FuzzSchedulerOrder runs one byte program on NewScheduler and on
// NewHeapScheduler: the logs must match, the reference's log must be
// (time, Key)-sorted, and Pending must agree at every horizon.
func FuzzSchedulerOrder(f *testing.F) {
	// Seeds after the directed lane cases: pure FIFO appends, anti-FIFO
	// overflow, same-time bursts across classes, cancels at assorted
	// positions, runs that stop on a head, and callbacks scheduling
	// children at the current instant.
	var fifo, anti, mixed []byte
	for i := 0; i < 40; i++ {
		fifo = append(fifo, 6*3, byte(64+i)) // op 0 on opcode 3, rising delays
		anti = append(anti, 6*3, byte(255-i))
	}
	fifo = append(fifo, 4, 200)
	anti = append(anti, 5, 255)
	for i := 0; i < 30; i++ {
		mixed = append(mixed, byte(i*7), byte(i*37))
	}
	f.Add(fifo)
	f.Add(anti)
	f.Add(mixed)
	f.Add([]byte{2, 0, 8, 0, 14, 90, 3, 1, 3, 4, 4, 0, 66 + 6*11, 0, 4, 70})     // bursts, cancels, horizon on a tie
	f.Add([]byte{0, 100, 1, 100, 6 * 11, 100, 3, 0, 3, 0, 3, 2, 4, 100, 4, 250}) // cancel twice: the second is stale
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})          // children at the current instant
	// Keyed events (kinds 12..23) due at one instant with plain ones
	// scheduled before and after their From: a burst of keyed kinds, a
	// run into the middle, plain events at the burst's instant.
	f.Add([]byte{6 * 13, 100, 6 * 14, 100, 6 * 15, 100, 4, 80, 6 * 3, 20, 6 * 16, 20, 2 + 6*2, 20, 5, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		lanes := &fzWorker{s: NewScheduler(), in: prog}
		heap := &fzWorker{s: NewHeapScheduler(), in: prog}
		lanes.run()
		heap.run()
		heap.sorted(t)
		eqCompare(t, lanes.log, heap.log)
		if len(lanes.pending) != len(heap.pending) {
			t.Fatalf("%d horizons on lanes+heap, %d on heap", len(lanes.pending), len(heap.pending))
		}
		for i := range lanes.pending {
			if lanes.pending[i] != heap.pending[i] {
				t.Fatalf("horizon %d: %d pending on lanes+heap, %d on heap", i, lanes.pending[i], heap.pending[i])
			}
		}
	})
}
