package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// mixedChain builds h0 --s0-- sw1 --s1-- sw2 --s2-- h1 with per-link
// speeds, on the 0.32 ns base clock.
func mixedChain(t *testing.T, seed uint64, speeds map[int]phy.Speed) (*sim.Scheduler, *Network) {
	t.Helper()
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, seed, topo.Chain(3), MixedSpeedConfig(),
		WithLinkSpeeds(speeds),
		WithPPM(map[string]float64{"h0": 100, "sw1": -100, "sw2": 100, "h1": -100}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("mixed-speed chain did not sync")
	}
	return sch, n
}

// mixedBound sums the per-hop bound: 4 port cycles of each hop's speed,
// in base units.
func mixedBound(speeds map[int]phy.Speed, links int) int64 {
	var sum int64
	for i := 0; i < links; i++ {
		s, ok := speeds[i]
		if !ok {
			s = phy.Speed10G
		}
		sum += 4 * phy.ProfileFor(s).Delta
	}
	return sum
}

func TestMixedSpeedFastUplink(t *testing.T) {
	// The paper's deployment reality (§7): hosts at 10 GbE, the switch
	// interconnect at 40 GbE. Counters all advance in 0.32 ns units.
	speeds := map[int]phy.Speed{0: phy.Speed10G, 1: phy.Speed40G, 2: phy.Speed10G}
	sch, n := mixedChain(t, 1, speeds)
	var worst int64
	for i := 0; i < 1000; i++ {
		sch.RunFor(50 * sim.Microsecond)
		v := n.TrueOffsetUnits(0, 3)
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	if bound := mixedBound(speeds, 3); worst > bound {
		t.Fatalf("mixed 10/40/10 end-to-end offset %d units > bound %d", worst, bound)
	}
}

func TestMixedSpeed100GCore(t *testing.T) {
	speeds := map[int]phy.Speed{0: phy.Speed10G, 1: phy.Speed100G, 2: phy.Speed10G}
	sch, n := mixedChain(t, 3, speeds)
	var worst int64
	for i := 0; i < 500; i++ {
		sch.RunFor(50 * sim.Microsecond)
		if v := n.MaxAdjacentOffset(); v > worst {
			worst = v
		}
	}
	// Adjacent bound: the slowest link dominates (4 × 20 units).
	if worst > 80 {
		t.Fatalf("adjacent offset %d units with a 100G core", worst)
	}
}

func TestMixedSpeed1GAccess(t *testing.T) {
	// 1 GbE access link (fragmented messages) + 10 GbE upstream.
	speeds := map[int]phy.Speed{0: phy.Speed1G, 1: phy.Speed10G, 2: phy.Speed10G}
	sch, n := mixedChain(t, 5, speeds)
	var worst int64
	for i := 0; i < 500; i++ {
		sch.RunFor(50 * sim.Microsecond)
		v := n.TrueOffsetUnits(0, 3)
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	if bound := mixedBound(speeds, 3); worst > bound {
		t.Fatalf("1G-access chain offset %d units > bound %d", worst, bound)
	}
}

func TestMixedSpeedCountersCoherent(t *testing.T) {
	// All counters advance at the same base-unit rate (±100 ppm):
	// ~3.125e9 units per second.
	speeds := map[int]phy.Speed{0: phy.Speed10G, 1: phy.Speed40G, 2: phy.Speed10G}
	sch, n := mixedChain(t, 7, speeds)
	start := n.Devices[0].GlobalCounter()
	t0 := sch.Now()
	sch.RunFor(500 * sim.Millisecond)
	gained := float64(n.Devices[0].GlobalCounter() - start)
	elapsed := (sch.Now() - t0).Seconds()
	rate := gained / elapsed
	// Max-coupled: the network tracks the fastest oscillator (+100 ppm)
	// = 3.1253125e9 units/s. Anything clearly above indicates ratchet.
	if rate < 3.1245e9 || rate > 3.1257e9 {
		t.Fatalf("base-unit rate %.6e, want ~3.12531e9", rate)
	}
}

func TestMixedSpeedRequiresBaseConfig(t *testing.T) {
	sch := sim.NewScheduler()
	_, err := NewNetwork(sch, 1, topo.Pair(), DefaultConfig(),
		WithLinkSpeeds(map[int]phy.Speed{0: phy.Speed40G}))
	if err == nil {
		t.Fatal("mixed speeds accepted without the base-clock config")
	}
}

// TestBoundUnitsIsWeightedDiameter: BoundUnits has one definition, the
// auditor's — LinkBoundUnits summed along each pair's shortest path,
// maximised over pairs — and on a homogeneous network that is the
// paper's 4·D.
func TestBoundUnitsIsWeightedDiameter(t *testing.T) {
	mixedSpeeds := map[int]phy.Speed{0: phy.Speed10G, 1: phy.Speed40G, 2: phy.Speed10G}
	homogeneous := func(g topo.Graph) int64 {
		return 4 * int64(DefaultConfig().UnitsPerTick) * int64(g.Diameter())
	}
	for _, tc := range []struct {
		name  string
		graph topo.Graph
		cfg   Config
		opts  []Option
		want  int64
	}{
		{"tree", topo.PaperTree(), DefaultConfig(), nil, homogeneous(topo.PaperTree())},
		{"fattree:4", topo.FatTree(4), DefaultConfig(), nil, homogeneous(topo.FatTree(4))},
		{"mixed chain:3", topo.Chain(3), MixedSpeedConfig(),
			[]Option{WithLinkSpeeds(mixedSpeeds)}, mixedBound(mixedSpeeds, 3)},
	} {
		n, err := NewNetwork(sim.NewScheduler(), 1, tc.graph, tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		weights := make([]int64, len(tc.graph.Links))
		for i := range weights {
			weights[i] = n.LinkBoundUnits(i)
		}
		_, wsum := tc.graph.HopsWith(nil, weights)
		var max int64
		for _, row := range wsum {
			for _, w := range row {
				if w > max {
					max = w
				}
			}
		}
		if got := n.BoundUnits(); got != max || got != tc.want {
			t.Errorf("%s: BoundUnits() = %d, weighted diameter %d, want %d", tc.name, got, max, tc.want)
		}
	}
}
