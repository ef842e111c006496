package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// masterNet builds a chain in §5.4 follow-the-master mode rooted at h0.
func masterNet(t *testing.T, seed uint64, hops int, ppm map[string]float64) (*sim.Scheduler, *Network) {
	t.Helper()
	sch := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.Master = "h0"
	n, err := NewNetwork(sch, seed, topo.Chain(hops), cfg, WithPPM(ppm))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("master-mode network did not sync")
	}
	return sch, n
}

func TestMasterModeRequiresRoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Master = "nonexistent"
	if _, err := NewNetwork(sim.NewScheduler(), 1, topo.Pair(), cfg); err == nil {
		t.Fatal("unknown master accepted")
	}
}

func TestMasterModeFollowsSlowRoot(t *testing.T) {
	// The defining difference from max-coupling: with a slow master and
	// a fast follower, the network runs at the MASTER's rate — the
	// follower stalls — instead of everyone adopting the fastest clock.
	sch, n := masterNet(t, 1, 1, map[string]float64{"h0": -100, "h1": +100})
	start := n.Devices[1].GlobalCounter()
	t0 := sch.Now()
	sch.RunFor(2 * sim.Second)
	gained := float64(n.Devices[1].GlobalCounter() - start)
	elapsed := (sch.Now() - t0).Seconds()
	rate := gained / elapsed
	masterRate := 156.25e6 * (1 - 100e-6)
	// The follower's counter rate must match the slow master within a
	// few ppm, despite its own oscillator running 200 ppm faster.
	if rate > masterRate*(1+5e-6) || rate < masterRate*(1-5e-6) {
		t.Fatalf("follower rate %.0f counts/s, master %.0f — not following", rate, masterRate)
	}
}

func TestMasterModeOffsetsBounded(t *testing.T) {
	sch, n := masterNet(t, 3, 4, map[string]float64{
		"h0": -100, "sw1": 100, "sw2": -50, "sw3": 80, "h1": 100,
	})
	var worst int64
	for i := 0; i < 1000; i++ {
		sch.RunFor(100 * sim.Microsecond)
		if o := n.MaxAdjacentOffset(); o > worst {
			worst = o
		}
	}
	// Stalling adds up to ~1 tick per hop on top of the 4T envelope.
	if worst > 6 {
		t.Fatalf("adjacent offset %d ticks in master mode", worst)
	}
}

func TestMasterModeCountersMonotone(t *testing.T) {
	// Stalls must never move a counter backwards.
	sch, n := masterNet(t, 5, 2, map[string]float64{"h0": -100, "sw1": 100, "h1": 100})
	var prev [3]uint64
	for i := 0; i < 2000; i++ {
		sch.RunFor(10 * sim.Microsecond)
		for d := 0; d < 3; d++ {
			got := n.Devices[d].GlobalCounter()
			if got < prev[d] {
				t.Fatalf("device %d regressed %d -> %d", d, prev[d], got)
			}
			prev[d] = got
		}
	}
}

func TestMasterModeStallsActuallyHappen(t *testing.T) {
	// Ground truth check on the mechanism: a +100 ppm follower of a
	// -100 ppm master must lose ~200 ppm worth of ticks to stalls.
	sch, n := masterNet(t, 7, 1, map[string]float64{"h0": -100, "h1": +100})
	dev := n.Devices[1]
	start := dev.GlobalCounter()
	startTick := dev.Clock().Counter()
	sch.RunFor(sim.Second)
	gainedCounter := dev.GlobalCounter() - start
	gainedTicks := dev.Clock().Counter() - startTick
	lost := int64(gainedTicks) - int64(gainedCounter)
	// 200 ppm of 156.25e6 = ~31250 ticks lost per second.
	if lost < 25_000 || lost > 40_000 {
		t.Fatalf("follower lost %d ticks to stalls, want ~31250", lost)
	}
}

func TestMasterModeRootNeverAdjusts(t *testing.T) {
	sch, n := masterNet(t, 9, 2, map[string]float64{"h0": 0, "sw1": 100, "h1": -100})
	root := n.Devices[0]
	start := root.GlobalCounter()
	t0 := sch.Now()
	sch.RunFor(sim.Second)
	gained := float64(root.GlobalCounter() - start)
	elapsed := (sch.Now() - t0).Seconds()
	want := 156.25e6 * elapsed
	if gained < want-2 || gained > want+2 {
		t.Fatalf("root gained %.0f counts, own-oscillator expectation %.0f", gained, want)
	}
}

func TestStallUnitCounter(t *testing.T) {
	sch, u := newCounterFixture(1)
	sch.Run(sim.Microsecond)
	now := sch.Now()
	v := u.at(now)
	u.stallBy(10, now)
	// Held at v while the excess is absorbed (10 ticks = 64 ns).
	sch.RunFor(32 * sim.Nanosecond)
	if got := u.at(sch.Now()); got != v {
		t.Fatalf("counter moved mid-stall: %d -> %d", v, got)
	}
	// After the excess has been absorbed, it resumes 10 ticks lower
	// than the unstalled trajectory.
	sch.RunFor(10 * sim.Microsecond)
	got := u.at(sch.Now())
	unstalled := v + uint64((32*sim.Nanosecond+10*sim.Microsecond)/6400)
	if got < unstalled-12 || got > unstalled-8 {
		t.Fatalf("post-stall counter %d, want ~%d-10", got, unstalled)
	}
	// A forward jump clears any stall state.
	u.setAt(got+100, sch.Now())
	sch.RunFor(sim.Microsecond)
	if u.at(sch.Now()) <= got+100 {
		t.Fatal("counter did not advance after jump")
	}
}

func TestStallZeroIsNoop(t *testing.T) {
	sch, u := newCounterFixture(1)
	sch.Run(sim.Microsecond)
	before := u.at(sch.Now())
	u.stallBy(0, sch.Now())
	sch.RunFor(sim.Microsecond)
	if u.at(sch.Now()) <= before {
		t.Fatal("zero stall froze the counter")
	}
}
