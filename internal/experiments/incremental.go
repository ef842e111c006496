package experiments

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// IncrementalResult quantifies §5.3: DTP deployed rack by rack. With
// only the racks DTP-enabled, servers inside a rack are nanosecond-
// synchronized while racks relate to each other through per-rack PTP
// masters (so cross-rack precision is PTP-class). DTP-enabling the
// aggregation switch collapses the whole network to nanoseconds.
type IncrementalResult struct {
	// IntraRackWorstNs: worst pairwise offset between servers in the
	// same DTP-enabled rack.
	IntraRackWorstNs float64
	// InterRackWorstNs: worst pairwise wall-clock difference between
	// servers in different racks, related through their PTP masters.
	InterRackWorstNs float64
	// MergedWorstNs: worst pairwise offset after the aggregation switch
	// is DTP-enabled and the racks join one DTP network.
	MergedWorstNs float64
}

// hostsPerRack is the number of servers under each rack's ToR switch.
const hostsPerRack = 4

// rackGraph builds one DTP-enabled rack: a ToR switch and hostsPerRack
// servers; host index 0 acts as the rack's PTP master.
func rackGraph() topo.Graph {
	g := topo.Graph{}
	g.Nodes = append(g.Nodes, topo.Node{ID: 0, Name: "tor", Kind: topo.Switch})
	for i := 0; i < hostsPerRack; i++ {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, topo.Node{ID: id, Name: fmt.Sprintf("h%d", i), Kind: topo.Host})
		g.Links = append(g.Links, topo.Link{A: 0, B: id, LengthM: topo.DefaultCableM})
	}
	return g
}

// mergedGraph is both racks plus a DTP-enabled aggregation switch.
func mergedGraph() topo.Graph {
	g := topo.Graph{}
	add := func(name string, k topo.Kind) int {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, topo.Node{ID: id, Name: name, Kind: k})
		return id
	}
	agg := add("agg", topo.Switch)
	for r := 0; r < 2; r++ {
		tor := add(fmt.Sprintf("r%d-tor", r), topo.Switch)
		g.Links = append(g.Links, topo.Link{A: agg, B: tor, LengthM: topo.DefaultCableM})
		for i := 0; i < hostsPerRack; i++ {
			h := add(fmt.Sprintf("r%d-h%d", r, i), topo.Host)
			g.Links = append(g.Links, topo.Link{A: tor, B: h, LengthM: topo.DefaultCableM})
		}
	}
	return g
}

// IncrementalDeployment runs the partial deployment (two independent
// DTP racks + PTP between rack masters) and the full deployment (one
// DTP network), reporting the three precision regimes.
func IncrementalDeployment(o Options) (*IncrementalResult, error) {
	o = o.withDefaults(2 * sim.Second)
	const period = 10 * sim.Millisecond
	res := &IncrementalResult{}

	// ---- Phase 1: per-rack DTP, PTP across racks. -------------------
	sch := sim.NewScheduler()
	var racks [2]*core.Network
	for r := 0; r < 2; r++ {
		n, err := core.NewNetwork(sch, o.Seed+uint64(r), rackGraph(), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.Start()
		racks[r] = n
	}
	// PTP fabric: timeserver + the two rack masters behind one switch.
	fnet, err := fabric.New(sch, o.Seed+10, topo.Star(2), fabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pcfg := ptp.DefaultConfig().Compressed()
	gm := ptp.NewGrandmaster(fnet, 1, []int{2, 3}, pcfg, o.Seed+11)
	masters := [2]*ptp.Client{
		ptp.NewClient(fnet, 2, 1, pcfg, o.Seed+12),
		ptp.NewClient(fnet, 3, 1, pcfg, o.Seed+13),
	}
	gm.Start()
	masters[0].Start()
	masters[1].Start()

	sch.Run(2 * sim.Second) // DTP syncs in ms; PTP needs the rounds
	for r := 0; r < 2; r++ {
		if !racks[r].AllSynced() {
			return nil, fmt.Errorf("experiments: rack %d failed to sync", r)
		}
	}

	// hostWallNs returns server i of rack r's wall-clock estimate: the
	// rack master's PTP clock, extended to the host over DTP counters
	// (the host's offset from the master in DTP ticks is known to
	// nanoseconds).
	tickNs := 6.4
	hostWallErrNs := func(r, host int) float64 {
		n := racks[r]
		// Node 1 is h0, the master; node 1+host is the queried server.
		deltaTicks := n.TrueOffsetUnits(1+host, 1)
		masterErrNs := masters[r].OffsetToMasterPs() / 1000
		return masterErrNs + float64(deltaTicks)*tickNs
	}
	sampleFor(sch, o, period, func() {
		for r := 0; r < 2; r++ {
			for i := 0; i < hostsPerRack; i++ {
				for j := i + 1; j < hostsPerRack; j++ {
					d := math.Abs(float64(racks[r].TrueOffsetUnits(1+i, 1+j))) * tickNs
					if d > res.IntraRackWorstNs {
						res.IntraRackWorstNs = d
					}
				}
			}
		}
		for i := 0; i < hostsPerRack; i++ {
			for j := 0; j < hostsPerRack; j++ {
				d := math.Abs(hostWallErrNs(0, i) - hostWallErrNs(1, j))
				if d > res.InterRackWorstNs {
					res.InterRackWorstNs = d
				}
			}
		}
	})

	// ---- Phase 2: DTP-enable the aggregation layer. ------------------
	sch2, merged, err := settled(o.Seed+20, mergedGraph(), core.DefaultConfig(), 10*sim.Millisecond)
	if err != nil {
		return nil, err
	}
	sampleFor(sch2, o, period, func() {
		if d := float64(merged.MaxPairwiseOffset()) * tickNs; d > res.MergedWorstNs {
			res.MergedWorstNs = d
		}
	})
	return res, nil
}
