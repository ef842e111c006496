package link

import (
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
	if _, err := New(sim.NewScheduler(), sim.NewRNG(1, "w"), Config{Delay: 1, BER: 1.5}); err == nil {
		t.Fatal("BER >= 1 accepted")
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
	launch := func(t1 sim.Time) bool { return w.LaunchActor(b, t1, 5*sim.Nanosecond, sink, 0) }
	if launch(10 * sim.Nanosecond) {
		t.Fatal("launched without a refile hook")
	}
	type refiled struct {
		f       Flight
		txAhead bool
	}
	var back []refiled
	w.OnRefile(func(f Flight, txAhead bool) { back = append(back, refiled{f, txAhead}) })
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
	if len(back) != 2 || back[0].f.T2 != 80*sim.Nanosecond || back[0].txAhead || !back[1].txAhead {
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
	if len(back) != 3 || back[2].f.T2 != 150*sim.Nanosecond || back[2].txAhead {
		t.Fatalf("refiled %+v, want the flight arriving now handed back on the cable", back)
	}
	sch.Drain()
	if len(landed) != 2 || landed[1] != 75*sim.Nanosecond {
		t.Fatalf("landings %v, want only the two flights never refiled (65 ns, 75 ns)", landed)
	}
}
