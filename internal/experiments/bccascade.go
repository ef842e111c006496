package experiments

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// BCCascadeRow is one point of the boundary-clock cascade measurement.
type BCCascadeRow struct {
	// Levels is the number of boundary clocks between the timeserver
	// and the measured client.
	Levels int
	// WorstNs / P99Ns summarize the client's offset to TRUE time after
	// convergence.
	WorstNs float64
	P99Ns   float64
}

// bcChain builds ts — bc1 — ... — bcN — leaf, all hosts with direct
// cables (each BC is slave on one port, master on the other).
func bcChain(levels int) topo.Graph {
	g := topo.Graph{}
	add := func(name string) int {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, topo.Node{ID: id, Name: name, Kind: topo.Host})
		return id
	}
	prev := add("ts")
	for i := 1; i <= levels; i++ {
		bc := add(fmt.Sprintf("bc%d", i))
		g.Links = append(g.Links, topo.Link{A: prev, B: bc, LengthM: topo.DefaultCableM})
		prev = bc
	}
	leaf := add("leaf")
	g.Links = append(g.Links, topo.Link{A: prev, B: leaf, LengthM: topo.DefaultCableM})
	return g
}

// AblationBCCascade measures how PTP precision degrades through chains
// of boundary clocks (§2.4.2: "precision errors from Boundary clocks
// can be cascaded to low-level components of the timing hierarchy").
func AblationBCCascade(o Options, maxLevels int) ([]BCCascadeRow, error) {
	o = o.withDefaults(2 * sim.Second)
	var rows []BCCascadeRow
	for levels := 0; levels <= maxLevels; levels++ {
		leaf, err := bcCascadeLeaf(o, levels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BCCascadeRow{Levels: levels, WorstNs: leaf.Max(), P99Ns: leaf.Quantile(0.99)})
	}
	return rows, nil
}

// bcCascadeLeaf runs one cascade of the given depth and returns the
// leaf client's |offset| to true time in ns, sampled every 10 ms over
// o.Duration after convergence.
func bcCascadeLeaf(o Options, levels int) (*stats.Summary, error) {
	sch := sim.NewScheduler()
	g := bcChain(levels)
	net, err := fabric.New(sch, o.Seed, g, fabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := ptp.DefaultConfig().Compressed(ptpCompression)
	leafID := len(g.Nodes) - 1
	gmClients := []int{1} // the first hop below the timeserver
	if levels == 0 {
		gmClients = []int{leafID}
	}
	ptp.NewGrandmaster(net, 0, gmClients, cfg, o.Seed+1).Start()
	for i := 1; i <= levels; i++ {
		down := i + 1 // next BC or the leaf
		ptp.NewBoundaryClock(net, i, i-1, []int{down}, cfg, o.Seed+10+uint64(i)).Start()
	}
	leaf := ptp.NewClient(net, leafID, leafID-1, cfg, o.Seed+100)
	leaf.Start()

	// Convergence must propagate level by level.
	sch.Run(sim.Time(2+levels) * sim.Second)
	sum := stats.NewSummary(0)
	sampleFor(sch, o, 10*sim.Millisecond, func() {
		sum.Add(math.Abs(leaf.OffsetToMasterPs()) / 1000)
	})
	return sum, nil
}
