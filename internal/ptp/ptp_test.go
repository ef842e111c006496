package ptp

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

func TestPHCRate(t *testing.T) {
	sch := sim.NewScheduler()
	phc := NewPHC(sch, 50) // +50 ppm
	sch.Run(sim.Second)
	got := phc.Now()
	want := 1e12 * (1 + 50e-6)
	if math.Abs(got-want) > 1 {
		t.Fatalf("PHC after 1s = %.0f ps, want %.0f", got, want)
	}
}

func TestPHCStepAndAdjFreq(t *testing.T) {
	sch := sim.NewScheduler()
	phc := NewPHC(sch, 0)
	sch.Run(sim.Second)
	phc.Step(-500)
	if math.Abs(phc.Now()-(1e12-500)) > 1e-3 {
		t.Fatalf("step failed: %.3f", phc.Now())
	}
	phc.AdjFreq(1000) // +1 ppm
	before := phc.Now()
	sch.RunFor(sim.Second)
	gained := phc.Now() - before
	want := 1e12 * (1 + 1e-6)
	if math.Abs(gained-want) > 1 {
		t.Fatalf("AdjFreq(1000): gained %.0f ps/s, want %.0f", gained, want)
	}
	if phc.AdjPPB() != 1000 {
		t.Fatal("AdjPPB accessor")
	}
}

func TestPHCRebasePreservesHistory(t *testing.T) {
	sch := sim.NewScheduler()
	phc := NewPHC(sch, 25)
	sch.Run(sim.Second)
	before := phc.Now()
	phc.SetHwPPM(-25)
	if math.Abs(phc.Now()-before) > 1e-6 {
		t.Fatal("SetHwPPM rewrote history")
	}
	if phc.HwPPM() != -25 {
		t.Fatal("HwPPM accessor")
	}
}

func TestServoConvergesConstantDrift(t *testing.T) {
	// Feed the servo the offsets a +30 ppm clock would accumulate; its
	// integral must converge near -30000 ppb.
	sch := sim.NewScheduler()
	phc := NewPHC(sch, 30)
	var s servo
	interval := sim.Second
	for i := 0; i < 60; i++ {
		start := phc.Now()
		startTrue := float64(sch.Now())
		sch.RunFor(interval)
		offset := (phc.Now() - start) - (float64(sch.Now()) - startTrue) // drift this round
		phc.AdjFreq(s.update(offset, interval))
	}
	if adj := phc.AdjPPB(); math.Abs(adj+30000) > 3000 {
		t.Fatalf("servo settled at %.0f ppb, want ~-30000", adj)
	}
}

func TestMedianSmallWindows(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{5, 1}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 9, 100}, 6.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// deploy builds the paper's PTP network: star through one cut-through
// switch, timeserver at node 1, 8 clients.
func deploy(t *testing.T, seed uint64, cfg Config, fcfg fabric.Config) (*sim.Scheduler, *fabric.Network, *Grandmaster, []*Client) {
	t.Helper()
	sch := sim.NewScheduler()
	g := topo.Star(8)
	net, err := fabric.New(sch, seed, g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	var clientNodes []int
	for _, h := range g.HostIDs() {
		if h != 1 {
			clientNodes = append(clientNodes, h)
		}
	}
	gm := NewGrandmaster(net, 1, clientNodes, cfg, seed+1)
	var clients []*Client
	for i, cn := range clientNodes {
		clients = append(clients, NewClient(net, cn, 1, cfg, seed+10+uint64(i)))
	}
	gm.Start()
	for _, c := range clients {
		c.Start()
	}
	return sch, net, gm, clients
}

func maxAbsOffsetNs(clients []*Client) float64 {
	worst := 0.0
	for _, c := range clients {
		if o := math.Abs(c.OffsetToMasterPs()) / 1000; o > worst {
			worst = o
		}
	}
	return worst
}

func TestPTPConvergesOnIdleNetwork(t *testing.T) {
	cfg := DefaultConfig().Compressed(10) // sync every 100 ms
	sch, _, _, clients := deploy(t, 5, cfg, fabric.DefaultConfig())
	sch.Run(10 * sim.Second) // ~100 sync rounds
	worst := 0.0
	for i := 0; i < 200; i++ {
		sch.RunFor(10 * sim.Millisecond)
		if o := maxAbsOffsetNs(clients); o > worst {
			worst = o
		}
	}
	// Paper (Fig. 6d): idle PTP holds hundreds of nanoseconds.
	if worst > 1000 {
		t.Fatalf("idle PTP offset reached %.0f ns, want sub-microsecond", worst)
	}
	if worst < 5 {
		t.Fatalf("idle PTP offset %.1f ns is implausibly perfect", worst)
	}
	for _, c := range clients {
		syncs, resps, _ := c.Stats()
		if syncs == 0 || resps == 0 {
			t.Fatal("client starved of protocol messages")
		}
	}
}

func TestPTPInitialStepHappens(t *testing.T) {
	cfg := DefaultConfig().Compressed(10)
	sch, _, _, clients := deploy(t, 7, cfg, fabric.DefaultConfig())
	sch.Run(5 * sim.Second)
	for _, c := range clients {
		if _, _, steps := c.Stats(); steps == 0 {
			t.Fatal("client with ±1ms initial error never stepped")
		}
	}
}

func TestPTPDegradesUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
	// The paper's central PTP result: idle « medium « heavy. Run the
	// same deployment under three loads and compare the post-
	// convergence worst offsets.
	run := func(load string) float64 {
		cfg := DefaultConfig().Compressed(50) // sync every 20 ms
		fcfg := fabric.DefaultConfig()
		sch, net, _, clients := deploy(t, 11, cfg, fcfg)
		sch.Run(2 * sim.Second) // converge while idle
		switch load {
		case "medium":
			// Five nodes at 4 Gbps spraying to each other (Fig. 6e).
			nodes := []int{2, 3, 4, 5, 6}
			for i, src := range nodes {
				fabric.NewSprayGen(net, src, nodes, 4.0, 32, uint64(100+i)).Start()
			}
		case "heavy":
			// Every host but one sprays at 9 Gbps (Fig. 6f): receive
			// and transmit paths of all their links saturate, and
			// bursts converge on shared egresses.
			nodes := []int{2, 3, 4, 5, 6, 7, 8}
			for i, src := range nodes {
				fabric.NewSprayGen(net, src, nodes, 9.0, 32, uint64(200+i)).Start()
			}
		}
		worst := 0.0
		for i := 0; i < 300; i++ {
			sch.RunFor(10 * sim.Millisecond)
			if o := maxAbsOffsetNs(clients); o > worst {
				worst = o
			}
		}
		return worst
	}
	idle := run("idle")
	medium := run("medium")
	heavy := run("heavy")
	t.Logf("worst offsets: idle %.0f ns, medium %.0f ns, heavy %.0f ns", idle, medium, heavy)
	if !(idle < medium && medium < heavy) {
		t.Fatalf("degradation order violated: idle %.0f, medium %.0f, heavy %.0f ns", idle, medium, heavy)
	}
	if medium < 2000 {
		t.Fatalf("medium load offset %.0f ns; paper reports tens of microseconds", medium)
	}
	if heavy < 20000 {
		t.Fatalf("heavy load offset %.0f ns; paper reports hundreds of microseconds", heavy)
	}
}

func TestPerfectTCRescuesHeavyLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
	// Ablation: with textbook transparent clocks the queue wait is
	// corrected and heavy load behaves near-idle — evidence that our
	// PTP degradation is caused by the realistic TC model, not by a
	// baked-in load->error constant.
	run := func(mode fabric.TCMode) float64 {
		cfg := DefaultConfig().Compressed(50)
		fcfg := fabric.DefaultConfig()
		fcfg.TC = mode
		sch, net, _, clients := deploy(t, 13, cfg, fcfg)
		sch.Run(2 * sim.Second)
		nodes := []int{2, 3, 4, 5, 6, 7, 8}
		for i, src := range nodes {
			fabric.NewSprayGen(net, src, nodes, 9.0, 32, uint64(300+i)).Start()
		}
		worst := 0.0
		for i := 0; i < 200; i++ {
			sch.RunFor(10 * sim.Millisecond)
			if o := maxAbsOffsetNs(clients); o > worst {
				worst = o
			}
		}
		return worst
	}
	realistic := run(fabric.TCRealistic)
	perfect := run(fabric.TCPerfect)
	t.Logf("heavy load: realistic TC %.0f ns, perfect TC %.0f ns", realistic, perfect)
	if perfect*5 > realistic {
		t.Fatalf("perfect TC (%.0f ns) should be far better than realistic (%.0f ns)", perfect, realistic)
	}
}

func TestPTPDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig().Compressed(10)
		sch, _, _, clients := deploy(t, 99, cfg, fabric.DefaultConfig())
		sch.Run(3 * sim.Second)
		return clients[0].OffsetToMasterPs()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestCompressedScalesIntervals(t *testing.T) {
	c := DefaultConfig().Compressed(10)
	if c.SyncInterval != 100*sim.Millisecond {
		t.Fatalf("sync interval %v", c.SyncInterval)
	}
	if c.DelayReqInterval != 75*sim.Millisecond {
		t.Fatalf("delay req interval %v", c.DelayReqInterval)
	}
	if got := DefaultConfig().Compressed(1); got.SyncInterval != sim.Second {
		t.Fatal("Compressed(1) should be identity")
	}
}

// NewTraffic is a small helper used by tests and experiments: one
// iperf-style flow at the given rate.
func NewTraffic(net *fabric.Network, src, dst int, gbps float64, seed uint64) *fabric.TrafficGen {
	g := fabric.NewTrafficGen(net, src, dst, eth.MTUFrame, gbps, 16, seed)
	g.Start()
	return g
}
