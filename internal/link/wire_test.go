package link

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

func TestDelayForLength(t *testing.T) {
	if DelayForLength(10) != 50*sim.Nanosecond {
		t.Fatalf("10m = %v, want 50ns", DelayForLength(10))
	}
	if DelayForLength(1000) != 5*sim.Microsecond {
		t.Fatalf("1000m = %v, want 5us (paper's max)", DelayForLength(1000))
	}
}

func TestSendBlockDelay(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 50 * sim.Nanosecond})
	var arrived sim.Time
	b := phy.IdleBlock()
	w.SendBlockActor(b, blockSink(func(got phy.Block) {
		arrived = sch.Now()
		if got != b {
			t.Error("block corrupted on error-free wire")
		}
	}), 0)
	sch.Run(sim.Microsecond)
	if arrived != 50*sim.Nanosecond {
		t.Fatalf("arrival at %v, want 50ns", arrived)
	}
}

func TestSendOpaqueDelay(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 5 * sim.Microsecond})
	fired := false
	w.Send(func() { fired = sch.Now() == 5*sim.Microsecond })
	sch.Run(sim.Second)
	if !fired {
		t.Fatal("opaque payload not delivered at the propagation delay")
	}
}

func TestZeroBERNeverCorrupts(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 1})
	for i := 0; i < 1000; i++ {
		b := phy.Codec{}.EmbedMessage(phy.Message{Type: phy.MsgBeacon, Payload: uint64(i)})
		w.SendBlockActor(b, blockSink(func(got phy.Block) {
			if got != b {
				t.Error("corruption at BER 0")
			}
		}), 0)
		sch.RunFor(sim.Nanosecond)
	}
	if _, c := w.Stats(); c != 0 {
		t.Fatalf("corrupted count %d at BER 0", c)
	}
}

func TestHighBERCorruptsAboutExpectedRate(t *testing.T) {
	sch := sim.NewScheduler()
	// BER 1e-3 => per-block error prob ~6.4%.
	w := mustNew(t, sch, sim.NewRNG(42, "wire"), Config{Delay: 1, BER: 1e-3})
	n := 20000
	diffs := 0
	for i := 0; i < n; i++ {
		b := phy.IdleBlock()
		w.SendBlockActor(b, blockSink(func(got phy.Block) {
			if got != b {
				diffs++
			}
		}), 0)
		sch.RunFor(sim.Nanosecond)
	}
	frac := float64(diffs) / float64(n)
	if frac < 0.05 || frac > 0.08 {
		t.Fatalf("corruption rate %.4f, want ~0.064", frac)
	}
	_, corrupted := w.Stats()
	if int(corrupted) != diffs {
		t.Fatalf("stats corrupted=%d, observed %d", corrupted, diffs)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(7, "wire"), Config{Delay: 1, BER: 0.1})
	sawSyncFlip := false
	for i := 0; i < 5000; i++ {
		b := phy.IdleBlock()
		w.SendBlockActor(b, blockSink(func(got phy.Block) {
			if got == b {
				return
			}
			syncDiff := popcount8(got.Sync ^ b.Sync)
			payloadDiff := popcount64(got.Payload ^ b.Payload)
			if syncDiff+payloadDiff != 1 {
				t.Errorf("corruption flipped %d bits", syncDiff+payloadDiff)
			}
			if syncDiff == 1 {
				sawSyncFlip = true
			}
		}), 0)
		sch.RunFor(sim.Nanosecond)
	}
	if !sawSyncFlip {
		t.Error("sync header bits never targeted by corruption")
	}
}

func popcount8(v byte) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func popcount64(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// blockSink is a recording sim.Actor: it rebuilds the block from the
// event payload, as core.Port does, and hands it to the test. The tests
// drive SendBlockActor because that is the path production takes.
type blockSink func(phy.Block)

func (f blockSink) OnEvent(_ uint8, a, b uint64) { f(phy.Block{Sync: byte(b), Payload: a}) }

func mustNew(t *testing.T, sch *sim.Scheduler, rng *sim.RNG, cfg Config) *Wire {
	t.Helper()
	w, err := New(sch, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNegativeDelayRejected(t *testing.T) {
	if _, err := New(sim.NewScheduler(), sim.NewRNG(1, "w"), Config{Delay: -1}); err == nil {
		t.Fatal("negative delay accepted")
	}
	for _, ber := range []float64{1.5, -1, math.NaN()} {
		if _, err := New(sim.NewScheduler(), sim.NewRNG(1, "w"), Config{Delay: 1, BER: ber}); err == nil {
			t.Fatalf("BER %g accepted", ber)
		}
	}
}

func TestSetBERRuntimeMutation(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(5, "wire"), Config{Delay: 1})
	clean, dirty := 0, 0
	send := func(n int, dirtyCount *int) {
		for i := 0; i < n; i++ {
			b := phy.IdleBlock()
			w.SendBlockActor(b, blockSink(func(got phy.Block) {
				if got != b {
					*dirtyCount++
				}
			}), 0)
			sch.RunFor(sim.Nanosecond)
		}
	}
	send(2000, &clean)
	if clean != 0 {
		t.Fatalf("%d corruptions before SetBER", clean)
	}
	w.SetBER(1e-2) // per-block ~48%
	send(2000, &dirty)
	if dirty < 500 {
		t.Fatalf("only %d/2000 corruptions after SetBER(1e-2)", dirty)
	}
	w.SetBER(0)
	clean = 0
	send(2000, &clean)
	if clean != 0 {
		t.Fatalf("%d corruptions after SetBER(0)", clean)
	}
}

func TestSetDelayRuntimeMutation(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(5, "wire"), Config{Delay: 50 * sim.Nanosecond})
	// A block already in flight keeps its launch delay.
	var first, second sim.Time
	start := sch.Now()
	w.SendBlockActor(phy.IdleBlock(), blockSink(func(phy.Block) { first = sch.Now() - start }), 0)
	if err := w.SetDelay(200 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	w.SendBlockActor(phy.IdleBlock(), blockSink(func(phy.Block) { second = sch.Now() - start }), 0)
	sch.Run(sim.Microsecond)
	if first != 50*sim.Nanosecond {
		t.Fatalf("in-flight block arrived after %v, want 50ns", first)
	}
	if second != 200*sim.Nanosecond {
		t.Fatalf("post-mutation block arrived after %v, want 200ns", second)
	}
	if err := w.SetDelay(-1); err == nil {
		t.Fatal("negative SetDelay accepted")
	}
}

func TestSetLossDropsBlocks(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(9, "wire"), Config{Delay: 1})
	w.SetLossP(1)
	delivered := 0
	for i := 0; i < 100; i++ {
		w.SendBlockActor(phy.IdleBlock(), blockSink(func(phy.Block) { delivered++ }), 0)
		w.Send(func() { delivered++ })
	}
	sch.Run(sim.Microsecond)
	if delivered != 0 {
		t.Fatalf("%d deliveries at loss 1.0", delivered)
	}
	if w.Dropped() != 200 {
		t.Fatalf("dropped = %d, want 200", w.Dropped())
	}
	w.SetLossP(0)
	w.SendBlockActor(phy.IdleBlock(), blockSink(func(phy.Block) { delivered++ }), 0)
	sch.Run(2 * sim.Microsecond)
	if delivered != 1 {
		t.Fatal("block lost after loss cleared")
	}
}

// landAt is a land hook (OnFlights) that never settles: the landing
// itself is scheduled on act at T3, at the reserved key.
func landAt(sch *sim.Scheduler, act sim.Actor) func(*Flight) {
	return func(f *Flight) {
		f.Ev = sch.AtActorKey(f.T3, f.Key, act, 0, f.Block.Payload, uint64(f.Block.Sync))
	}
}

// refiled is one flight handed back to the owner.
type refiled struct {
	f    Flight
	from Stage
}

// A flight lands rx after t1 + Delay(), counts as sent once t1 passes,
// and a change to the wire hands back the flights that have not reached
// the far end: TX-ahead before t1, on the cable after it, and a flight
// whose t2 is the current instant counts as not arrived. Flights past
// the far end stay counted when the next launch retires them.
func TestFlightLaunchLandRefile(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 50 * sim.Nanosecond})
	b := phy.IdleBlock()
	var landed []sim.Time
	sink := blockSink(func(got phy.Block) {
		landed = append(landed, sch.Now())
		if got != b {
			t.Error("flight corrupted its block")
		}
	})
	launch := func(t1 sim.Time) bool { return w.LaunchActor(b, t1, 5*sim.Nanosecond) }
	if launch(10 * sim.Nanosecond) {
		t.Fatal("launched without the owner's hooks")
	}
	var back []refiled
	w.OnFlights(landAt(sch, sink), func(f Flight, from Stage) sim.Event {
		back = append(back, refiled{f, from})
		return sim.Event{}
	})
	for _, t1 := range []sim.Time{10, 20, 30, 100} {
		if !launch(t1 * sim.Nanosecond) {
			t.Fatalf("launch at t1=%v ns refused", int64(t1))
		}
	}
	if launch(200 * sim.Nanosecond) {
		t.Fatalf("launched a flight past the ring's %d", flightCap)
	}
	sch.Run(66 * sim.Nanosecond)
	if sent, _ := w.Stats(); sent != 3 || len(landed) != 1 || landed[0] != 65*sim.Nanosecond {
		t.Fatalf("at 66 ns: sent %d, landings %v; want 3 sent (t1 = 10, 20, 30) and a landing at 65 ns", sent, landed)
	}
	sch.Run(76 * sim.Nanosecond)
	w.SetLossP(0.5)
	if len(back) != 2 || back[0].f.T2 != 80*sim.Nanosecond || back[0].from != OnCable || back[1].from != TxAhead {
		t.Fatalf("refiled %+v, want t2 = 80 ns on the cable and t1 = 100 ns ahead of it", back)
	}
	if sent, _ := w.Stats(); sent != 3 {
		t.Fatalf("sent = %d after the refile, want 3: two landed, one on the cable", sent)
	}
	if launch(100 * sim.Nanosecond) {
		t.Fatal("launched on a lossy wire")
	}
	w.SetLossP(0)
	if !launch(100 * sim.Nanosecond) {
		t.Fatal("launch refused on a clean wire")
	}
	sch.Run(150 * sim.Nanosecond) // exactly the flight's t2
	_ = w.SetDelay(60 * sim.Nanosecond)
	if len(back) != 3 || back[2].f.T2 != 150*sim.Nanosecond || back[2].from != OnCable {
		t.Fatalf("refiled %+v, want the flight arriving now handed back on the cable", back)
	}
	drain(sch)
	if len(landed) != 2 || landed[1] != 75*sim.Nanosecond {
		t.Fatalf("landings %v, want only the two flights never refiled (65 ns, 75 ns)", landed)
	}
}

// A settled flight's event is what its landing would schedule, keyed at
// (T3, the reserved seq). It keeps its ring slot until T3 has passed;
// Unsettle hands it back at Landing, in the reserved place, until then
// (T3 itself included) and leaves it alone after; Refile still takes a
// settled flight that has not reached the far end to the per-stage
// events.
func TestSettledFlightUnsettle(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 50 * sim.Nanosecond})
	b := phy.IdleBlock()
	const rx, process = 5 * sim.Nanosecond, 3 * sim.Nanosecond
	var processed, landed []sim.Time
	procSink := blockSink(func(phy.Block) { processed = append(processed, sch.Now()) })
	landSink := blockSink(func(phy.Block) { landed = append(landed, sch.Now()) })
	var keys []sim.Key
	var back []refiled
	w.OnFlights(func(f *Flight) {
		keys = append(keys, f.Key)
		f.Ev = sch.AtActorKey(f.T3+process, sim.Key{From: f.T3, Seq: f.Key.Seq}, procSink, 0, f.Block.Payload, uint64(f.Block.Sync))
		f.Settled = true
	}, func(f Flight, from Stage) sim.Event {
		back = append(back, refiled{f, from})
		if from != Landing {
			return sim.Event{}
		}
		return sch.AtActorKey(f.T3, f.Key, landSink, 0, f.Block.Payload, uint64(f.Block.Sync))
	})
	launch := func(t1 sim.Time) {
		t.Helper()
		if !w.LaunchActor(b, t1, rx) {
			t.Fatalf("launch at t1=%v refused", t1)
		}
	}
	// T1 10, T2 60, T3 65: unsettled after T2, it lands at T3.
	launch(10 * sim.Nanosecond)
	sch.Run(62 * sim.Nanosecond)
	w.Unsettle()
	if len(back) != 1 || back[0].from != Landing || back[0].f.Key != keys[0] || back[0].f.T3 != 65*sim.Nanosecond {
		t.Fatalf("unsettled %+v, want the flight back at its landing (65 ns) with key %+v", back, keys[0])
	}
	w.Refile() // past T2: nothing for the sender's side to hand back
	if len(back) != 1 {
		t.Fatalf("refiled %+v after T2", back[1:])
	}
	// T1 70, T2 120, T3 125: Unsettle at exactly T3 counts as ahead.
	launch(70 * sim.Nanosecond)
	sch.Run(125 * sim.Nanosecond)
	w.Unsettle()
	if len(back) != 2 || back[1].from != Landing || back[1].f.T3 != 125*sim.Nanosecond {
		t.Fatalf("unsettled %+v, want the flight landing now back at its landing", back)
	}
	// T1 130, T2 180, T3 185: a settled flight is left alone once T3 has
	// passed, and keeps its ring slot until then.
	launch(130 * sim.Nanosecond)
	sch.Run(183 * sim.Nanosecond)
	for i := 0; i < flightCap-1; i++ {
		launch(200 * sim.Nanosecond)
	}
	if w.LaunchActor(b, 200*sim.Nanosecond, rx) {
		t.Fatal("a settled flight short of its landing left the ring")
	}
	// Past 185 ns only the three launched at 183 ns (T3 255) are handed
	// back at their landing; the Refile that follows takes all three,
	// short of T1, to the TX pipeline and cancels those landings.
	sch.Run(186 * sim.Nanosecond)
	w.Unsettle()
	if len(back) != 5 || back[2].f.T3 != 255*sim.Nanosecond || back[4].from != Landing {
		t.Fatalf("unsettled %+v, want only the three flights landing at 255 ns", back[2:])
	}
	_ = w.SetDelay(40 * sim.Nanosecond)
	if len(back) != 8 || back[5].from != TxAhead || back[7].from != TxAhead {
		t.Fatalf("refiled %+v, want the three flights short of T1 handed back", back[5:])
	}
	drain(sch)
	want := []sim.Time{188 * sim.Nanosecond}
	if len(processed) != 1 || processed[0] != want[0] {
		t.Fatalf("processed %v, want only the flight never handed back (%v)", processed, want)
	}
	if len(landed) != 2 || landed[0] != 65*sim.Nanosecond || landed[1] != 125*sim.Nanosecond {
		t.Fatalf("landings %v, want the two unsettled flights at 65 and 125 ns", landed)
	}
}

// Flights draw in launch order, so one hand-back passes on only the
// earliest draw among the flights it hands back: rewinding to that
// one's mark undoes the later ones too. Unsettle clears Drew in the
// ring, so a Refile after it undoes only a draw taken since.
func TestHandBackUndoesEarliestDraw(t *testing.T) {
	sch := sim.NewScheduler()
	w := mustNew(t, sch, sim.NewRNG(1, "wire"), Config{Delay: 50 * sim.Nanosecond})
	stream := sim.NewRNG(1, "receiver")
	var marks []sim.RNGMark
	launched := 0
	// Every flight but the first draws at launch.
	w.OnFlights(func(f *Flight) {
		if launched++; launched > 1 {
			f.Drew, f.Mark = true, stream.Mark()
			marks = append(marks, f.Mark)
			stream.IntN(2)
		}
		f.Settled = true
	}, func(f Flight, from Stage) sim.Event {
		if f.Drew {
			stream.Rewind(f.Mark)
		}
		return sim.Event{}
	})
	launch := func(t1 sim.Time) {
		t.Helper()
		if !w.LaunchActor(phy.IdleBlock(), t1*sim.Nanosecond, 5*sim.Nanosecond) {
			t.Fatalf("launch at t1=%v ns refused", int64(t1))
		}
	}
	launch(10)
	launch(20)
	launch(30)
	w.Unsettle()
	if stream.Mark() != marks[0] {
		t.Fatal("Unsettle left the stream elsewhere than before the earliest draw")
	}
	stream.IntN(2)
	launch(40)
	w.Refile()
	if stream.Mark() != marks[2] {
		t.Fatal("Refile left the stream elsewhere than before the one draw taken since Unsettle")
	}
}

// drain dispatches every remaining event regardless of timestamp.
func drain(s *sim.Scheduler) {
	for s.Step() {
	}
}
