package experiments

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
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
		gm := ptp.NewGrandmaster(net, 0, gmClients, cfg, o.Seed+1)
		var bcs []*ptp.BoundaryClock
		for i := 1; i <= levels; i++ {
			down := i + 1 // next BC or the leaf
			bc := ptp.NewBoundaryClock(net, i, i-1, []int{down}, cfg, o.Seed+10+uint64(i))
			bcs = append(bcs, bc)
		}
		leaf := ptp.NewClient(net, leafID, leafID-1, cfg, o.Seed+100)
		gm.Start()
		for _, bc := range bcs {
			bc.Start()
		}
		leaf.Start()

		// Convergence must propagate level by level.
		sch.Run(sim.Time(2+levels) * sim.Second)
		worst := 0.0
		sum := statsAbs{}
		sampleFor(sch, o, 10*sim.Millisecond, func() {
			off := math.Abs(leaf.OffsetToMasterPs()) / 1000
			if off > worst {
				worst = off
			}
			sum.add(off)
		})
		rows = append(rows, BCCascadeRow{Levels: levels, WorstNs: worst, P99Ns: sum.p99()})
	}
	return rows, nil
}

// statsAbs is a tiny quantile helper for this experiment.
type statsAbs struct{ v []float64 }

func (s *statsAbs) add(x float64) { s.v = append(s.v, x) }

func (s *statsAbs) p99() float64 {
	if len(s.v) == 0 {
		return 0
	}
	tmp := make([]float64, len(s.v))
	copy(tmp, s.v)
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	return tmp[int(0.99*float64(len(tmp)-1))]
}
