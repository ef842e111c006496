package ptp

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
)

// BoundaryClock is a PTP boundary clock (§2.4.2): a slave to its
// upstream master and a master to its downstream clients, serving them
// from its own disciplined PHC. Boundary clocks make PTP scale — the
// timeserver answers only its direct children — but every level adds
// its own servo error, so precision degrades down the hierarchy. The
// paper cites exactly this cascading as a PTP scalability/precision
// trade-off; AblationBCCascade measures it.
type BoundaryClock struct {
	Client *Client
	master *Grandmaster
}

// NewBoundaryClock installs a boundary clock at a host node: slave to
// upstream, master to the downstream nodes.
func NewBoundaryClock(n *fabric.Network, node, upstream int, downstream []int, cfg Config, seed uint64) *BoundaryClock {
	bc := &BoundaryClock{}
	bc.Client = NewClient(n, node, upstream, cfg, seed)
	bc.master = &Grandmaster{
		net: n, cfg: cfg, node: node, clients: downstream,
		rng:    sim.NewRNG(seed, fmt.Sprintf("ptp/bc/%d", node)),
		source: func(t sim.Time) float64 { return bc.Client.PHC.At(t) },
		// Boundary clocks rank below true grandmasters.
		Priority: 200,
	}
	// Both halves receive PTP event frames at this node; dispatch by
	// message kind: Delay_Reqs from downstream go to the master half,
	// Syncs from upstream to the slave half.
	n.Handle(node, eth.ProtoPTPEvent, func(f *eth.Frame, rx sim.Time) {
		if _, isReq := f.Payload.(delayReq); isReq {
			bc.master.onEvent(f, rx)
			return
		}
		bc.Client.onEvent(f, rx)
	})
	return bc
}

// Start begins both halves: the upstream slave and the downstream Sync
// cadence.
func (bc *BoundaryClock) Start() {
	bc.Client.Start()
	bc.master.Start()
}
