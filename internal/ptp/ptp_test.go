package ptp

import (
	"math"
	"testing"

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
// switch, timeserver at node 1, 8 clients syncing every 100 ms.
func deploy(t *testing.T, seed uint64) (*sim.Scheduler, []*Client) {
	t.Helper()
	cfg := DefaultConfig().Compressed(10)
	sch := sim.NewScheduler()
	g := topo.Star(8)
	net, err := fabric.New(sch, seed, g, fabric.DefaultConfig())
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
	return sch, clients
}

func TestPTPConvergesOnIdleNetwork(t *testing.T) {
	sch, clients := deploy(t, 5)
	sch.Run(10 * sim.Second) // ~100 sync rounds
	worst := 0.0
	for i := 0; i < 200; i++ {
		sch.RunFor(10 * sim.Millisecond)
		for _, c := range clients {
			worst = math.Max(worst, math.Abs(c.OffsetToMasterPs())/1000)
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
	sch, clients := deploy(t, 7)
	sch.Run(5 * sim.Second)
	for _, c := range clients {
		if _, _, steps := c.Stats(); steps == 0 {
			t.Fatal("client with ±1ms initial error never stepped")
		}
	}
}

func TestPTPDeterminism(t *testing.T) {
	run := func() float64 {
		sch, clients := deploy(t, 99)
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
