package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// TestLateJoinerAdoptsMaxCounter: a device brought up long after the
// network has been running has a far smaller counter; BEACON-JOIN must
// pull it up to the network maximum quickly (§3.2 "Network dynamics").
func TestLateJoinerAdoptsMaxCounter(t *testing.T) {
	sch := sim.NewScheduler()
	g := topo.Chain(2) // h0 - sw1 - h1
	n, err := NewNetwork(sch, 51, g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Bring up only link 0 (h0-sw1); h1 stays disconnected.
	n.SetLinkUp(0)
	sch.Run(100 * sim.Millisecond)
	core0 := n.Devices[0].GlobalCounter()
	if core0 == 0 {
		t.Fatal("running subnet counter did not advance")
	}
	// h1 joins: its counter is fresh (near the tick count, no jumps).
	n.SetLinkUp(1)
	sch.RunFor(5 * sim.Millisecond)
	o := n.TrueOffsetUnits(1, 2)
	if o < 0 {
		o = -o
	}
	if o > 4 {
		t.Fatalf("late joiner still %d ticks away after JOIN", o)
	}
}

// TestJoinNeverMovesCountersBackwards: when two subnets with different
// counters merge, the smaller adopts the larger — never the reverse.
func TestJoinNeverMovesCountersBackwards(t *testing.T) {
	sch := sim.NewScheduler()
	g := topo.Chain(2)
	n, err := NewNetwork(sch, 53, g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetLinkUp(0)
	sch.Run(50 * sim.Millisecond)
	before := n.Devices[0].GlobalCounter()
	n.SetLinkUp(1)
	sch.RunFor(10 * sim.Millisecond)
	after := n.Devices[0].GlobalCounter()
	elapsedPs := float64(10 * sim.Millisecond)
	minGain := uint64(elapsedPs / 6400.64) // slowest admissible clock
	if after < before+minGain {
		t.Fatalf("established subnet slowed down after merge: %d -> %d", before, after)
	}
}

// TestPartitionHealViaJoin: partition the paper tree, let the halves
// drift for a while, then reconnect; BEACON-JOIN must re-merge the
// subnets onto the maximum counter within a few milliseconds.
func TestPartitionHealViaJoin(t *testing.T) {
	sch := sim.NewScheduler()
	g := topo.PaperTree()
	n, err := NewNetwork(sch, 57, g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("tree did not sync")
	}
	// Partition: cut s0-s3 (link 2), isolating {s3, s9, s10, s11}.
	n.SetLinkDown(2)
	sch.RunFor(200 * sim.Millisecond)
	s0, _ := n.DeviceByName("s0")
	s3, _ := n.DeviceByName("s3")
	drift := int64(s0.GlobalCounter()) - int64(s3.GlobalCounter())
	if drift < 0 {
		drift = -drift
	}
	if drift <= 4 {
		t.Fatalf("partitioned subnets only %d ticks apart; expected drift", drift)
	}
	// Heal.
	n.SetLinkUp(2)
	sch.RunFor(10 * sim.Millisecond)
	var worst int64
	for i := 0; i < 100; i++ {
		sch.RunFor(100 * sim.Microsecond)
		if o := n.MaxPairwiseOffset(); o > worst {
			worst = o
		}
	}
	if bound := n.BoundUnits(); worst > bound {
		t.Fatalf("after heal, offset %d > bound %d", worst, bound)
	}
}

// TestBitErrorsAreRejectedByGuard: at an absurdly high BER, corrupted
// beacons must be ignored (guard / parity / invalid type), leaving
// precision intact.
func TestBitErrorsAreRejectedByGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BER = 1e-5 // ~1 corrupted block per 1500; astronomically worse than the 1e-12 objective
	cfg.Parity = true
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 61, topo.Pair(), cfg,
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync despite retries")
	}
	var worst int64
	for i := 0; i < 1000; i++ {
		sch.RunFor(100 * sim.Microsecond)
		o := n.TrueOffsetUnits(0, 1)
		if o < 0 {
			o = -o
		}
		if o > worst {
			worst = o
		}
	}
	if worst > 4 {
		t.Fatalf("offset reached %d ticks under heavy bit errors", worst)
	}
	pa, _ := n.LinkPorts(0)
	if _, _, ignored, _ := pa.Stats(); ignored == 0 {
		t.Fatal("no beacons were rejected — BER not exercised")
	}
}

// TestParityCatchesLSBErrors: with parity enabled, single-bit errors in
// the three LSBs are dropped at decode rather than shifting the clock.
func TestParityCatchesLSBErrors(t *testing.T) {
	codec := phy.Codec{Parity: true}
	m := phy.Message{Type: phy.MsgBeacon, Payload: 0x1000}
	b := codec.EmbedMessage(m)
	// Flip payload LSB (control bit 3 = payload bit 56-...): wire
	// payload bit index 8 (block type) + 3.
	b.Payload ^= 1 << 11
	if _, _, ok := codec.ExtractMessage(b); ok {
		t.Fatal("corrupted LSB beacon passed parity")
	}
}

// TestFaultyPeerDetection: a peer whose counter is wildly inconsistent
// (simulated via a byzantine counter injection) must be cut off after
// faultyJumpLimit guard violations.
func TestFaultyPeerDetection(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 67, topo.Pair(), DefaultConfig(),
		WithPPM(map[string]float64{"h0": 0, "h1": 0}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	pa, pb := n.LinkPorts(0)
	if pa.Faulty() || pb.Faulty() {
		t.Fatal("healthy peers marked faulty")
	}
	// h1 goes byzantine: keeps sending beacons claiming a counter far in
	// the future (but within the reconstructible range).
	for i := 0; i < 50; i++ {
		bogus := pb.dev.GlobalCounter() + 1_000_000
		pb.insert(phy.MsgBeacon, bogus)
		sch.RunFor(10 * sim.Microsecond)
	}
	if !pa.Faulty() {
		t.Fatal("byzantine peer not detected")
	}
	// Once faulty, even honest-looking beacons are ignored.
	_, recvBefore, ignoredBefore, _ := pa.Stats()
	sch.RunFor(time10ms)
	_, recvAfter, ignoredAfter, _ := pa.Stats()
	if recvAfter > recvBefore && ignoredAfter-ignoredBefore != recvAfter-recvBefore {
		t.Fatal("faulty peer's beacons still being applied")
	}
}

const time10ms = 10 * sim.Millisecond

// TestCounterWrapAt53Bits: beacons carry only 53 LSBs; crossing the 2^53
// boundary must not disturb synchronization (BEACON-MSB + reconstruction).
func TestCounterWrapAt53Bits(t *testing.T) {
	cfg := DefaultConfig()
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 71, topo.Pair(), cfg,
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-advance both counters to just below the wrap boundary.
	start := uint64(1<<53) - 200_000
	for _, d := range n.Devices {
		d.gc.setAt(start, sch.Now())
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}
	crossed := false
	var worst int64
	for i := 0; i < 2000; i++ {
		sch.RunFor(10 * sim.Microsecond)
		if n.Devices[0].GlobalCounter() > 1<<53 {
			crossed = true
		}
		o := n.TrueOffsetUnits(0, 1)
		if o < 0 {
			o = -o
		}
		if o > worst {
			worst = o
		}
	}
	if !crossed {
		t.Fatal("counter never crossed the 2^53 boundary — test ineffective")
	}
	if worst > 4 {
		t.Fatalf("offset reached %d ticks across the 53-bit wrap", worst)
	}
}

// TestOtherSpeedsBounded: Table 2 — DTP at 40 and 100 GbE with counters
// in 0.32 ns base units. The tick is shorter, so the bound in *units*
// is 4*Delta per hop; in nanoseconds it is the same 4 periods.
func TestOtherSpeedsBounded(t *testing.T) {
	for _, speed := range []phy.Speed{phy.Speed40G, phy.Speed100G} {
		p := phy.ProfileFor(speed)
		cfg := DefaultConfig()
		cfg.Profile = p
		cfg.UnitsPerTick = uint64(p.Delta)
		cfg.AlphaUnits = 3 * p.Delta
		cfg.GuardUnits = 8 * p.Delta
		sch := sim.NewScheduler()
		n, err := NewNetwork(sch, 73, topo.Pair(), cfg,
			WithPPM(map[string]float64{"h0": 100, "h1": -100}))
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		sch.Run(5 * sim.Millisecond)
		if !n.AllSynced() {
			t.Fatalf("%v pair did not sync", speed)
		}
		var worst int64
		for i := 0; i < 1000; i++ {
			sch.RunFor(20 * sim.Microsecond)
			o := n.TrueOffsetUnits(0, 1)
			if o < 0 {
				o = -o
			}
			if o > worst {
				worst = o
			}
		}
		if bound := 4 * int64(p.Delta); worst > bound {
			t.Fatalf("%v: offset %d units > bound %d units", speed, worst, bound)
		}
	}
}

// Test1GFragmentedMessages: the §7 adaptation — messages split across
// four ordered-set fragments — must synchronize a 1 GbE pair within
// the 4T bound (4 × 8 ns; 100 units of 0.32 ns).
func Test1GFragmentedMessages(t *testing.T) {
	p := phy.ProfileFor(phy.Speed1G)
	cfg := DefaultConfig()
	cfg.Profile = p
	cfg.UnitsPerTick = uint64(p.Delta)
	cfg.AlphaUnits = 3 * p.Delta
	cfg.GuardUnits = 8 * p.Delta
	cfg.FragmentedMessages = true
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 111, topo.Pair(), cfg,
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("1G pair did not sync")
	}
	var worst int64
	for i := 0; i < 1000; i++ {
		sch.RunFor(50 * sim.Microsecond)
		o := n.TrueOffsetUnits(0, 1)
		if o < 0 {
			o = -o
		}
		if o > worst {
			worst = o
		}
	}
	if bound := 4 * int64(p.Delta); worst > bound {
		t.Fatalf("1G offset %d units > bound %d units", worst, bound)
	}
}

// Test1GFragmentsSurviveBitErrors: a corrupted fragment must drop the
// whole message (assembler reset), never corrupt the clock.
func Test1GFragmentsSurviveBitErrors(t *testing.T) {
	p := phy.ProfileFor(phy.Speed1G)
	cfg := DefaultConfig()
	cfg.Profile = p
	cfg.UnitsPerTick = uint64(p.Delta)
	cfg.AlphaUnits = 3 * p.Delta
	cfg.GuardUnits = 8 * p.Delta
	cfg.FragmentedMessages = true
	cfg.Parity = true
	cfg.BER = 1e-5
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 113, topo.Pair(), cfg,
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("1G pair did not sync under BER")
	}
	var worst int64
	for i := 0; i < 500; i++ {
		sch.RunFor(100 * sim.Microsecond)
		o := n.TrueOffsetUnits(0, 1)
		if o < 0 {
			o = -o
		}
		if o > worst {
			worst = o
		}
	}
	if bound := 4 * int64(p.Delta); worst > bound {
		t.Fatalf("1G offset %d units under bit errors > bound %d", worst, bound)
	}
}

// TestWanderingOscillatorsStayBounded: slow temperature-style frequency
// wander (the realistic condition) must not break the bound.
func TestWanderingOscillatorsStayBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WanderInterval = sim.Millisecond
	cfg.WanderStepPPB = 200
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 79, topo.PaperTree(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	var worst int64
	for i := 0; i < 300; i++ {
		sch.RunFor(333 * sim.Microsecond)
		if o := n.MaxAdjacentOffset(); o > worst {
			worst = o
		}
	}
	if worst > 4 {
		t.Fatalf("adjacent offset reached %d ticks under wander", worst)
	}
}

// TestDownPortStopsBeacons: tearing a link down stops its beacon flow.
func TestDownPortStopsBeacons(t *testing.T) {
	sch, n := startPair(t, 89, DefaultConfig(), 50, -50)
	pa, _ := n.LinkPorts(0)
	sentBefore, _, _, _ := pa.Stats()
	n.SetLinkDown(0)
	sch.RunFor(10 * sim.Millisecond)
	sentAfter, _, _, _ := pa.Stats()
	if sentAfter != sentBefore {
		t.Fatalf("down port sent %d beacons", sentAfter-sentBefore)
	}
}

// TestReUpAfterDownResyncs: plugging the cable back in re-runs INIT and
// restores the bound.
func TestReUpAfterDownResyncs(t *testing.T) {
	sch, n := startPair(t, 97, DefaultConfig(), 100, -100)
	n.SetLinkDown(0)
	sch.RunFor(100 * sim.Millisecond) // drift apart
	n.SetLinkUp(0)
	sch.RunFor(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not resync after re-up")
	}
	var worst int64
	for i := 0; i < 200; i++ {
		sch.RunFor(100 * sim.Microsecond)
		o := n.TrueOffsetUnits(0, 1)
		if o < 0 {
			o = -o
		}
		if o > worst {
			worst = o
		}
	}
	if worst > 4 {
		t.Fatalf("offset %d ticks after re-up", worst)
	}
}

// TestDeterminism: identical seeds produce identical trajectories.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		sch := sim.NewScheduler()
		n, err := NewNetwork(sch, 4242, topo.PaperTree(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		sch.Run(20 * sim.Millisecond)
		return n.Devices[0].GlobalCounter(), n.Devices[5].GlobalCounter(), n.MaxPairwiseOffset()
	}
	a0, a5, am := run()
	b0, b5, bm := run()
	if a0 != b0 || a5 != b5 || am != bm {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", a0, a5, am, b0, b5, bm)
	}
}

// TestPortAccessors exercises small API surface for coverage.
func TestPortAccessors(t *testing.T) {
	_, n := startPair(t, 101, DefaultConfig(), 10, -10)
	pa, pb := n.LinkPorts(0)
	if pa.Peer() != pb || pb.Peer() != pa {
		t.Fatal("peer wiring broken")
	}
	if pa.PairName() != "h0-h1" || pb.PairName() != "h1-h0" {
		t.Fatalf("pair names %s/%s", pa.PairName(), pb.PairName())
	}
	if pa.Device().Name() != "h0" {
		t.Fatal("device accessor broken")
	}
	d, err := n.DeviceByName("h0")
	if err != nil || d.node.Kind.String() != "host" {
		t.Fatal("DeviceByName failed")
	}
	if _, err := n.DeviceByName("nope"); err == nil {
		t.Fatal("phantom device found")
	}
	if _, err := d.PortTo("h1"); err != nil {
		t.Fatal("PortTo failed")
	}
	if _, err := d.PortTo("zz"); err == nil {
		t.Fatal("PortTo phantom succeeded")
	}
	if d.PPM() != 10 {
		t.Fatalf("PPM = %v", d.PPM())
	}
}
