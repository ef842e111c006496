package ptp

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
)

// Grandmaster is a PTP master: it periodically sends Sync + Follow_Up
// to every client and answers Delay_Reqs, timestamping with its time
// source. The top-level timeserver's source is true time (the paper's
// VelaSync is GPS-disciplined; its residual error is far below the
// effects under study); a boundary clock reuses this machinery with its
// own disciplined PHC as the source, which is how BC errors cascade
// down the timing tree (§2.4.2).
type Grandmaster struct {
	net  *fabric.Network
	cfg  Config
	rng  *sim.RNG
	node int

	clients []int
	seq     uint64

	// source returns this master's PTP time (ps) at a real instant.
	source func(sim.Time) float64

	// Priority is the best-master-clock rank (lower wins; default 128).
	Priority int

	stopped bool
}

// NewGrandmaster installs a true-time grandmaster at the given host node.
func NewGrandmaster(n *fabric.Network, node int, clients []int, cfg Config, seed uint64) *Grandmaster {
	gm := &Grandmaster{
		net: n, cfg: cfg, node: node, clients: clients,
		rng:      sim.NewRNG(seed, fmt.Sprintf("ptp/gm/%d", node)),
		source:   func(t sim.Time) float64 { return float64(t) },
		Priority: 128,
	}
	n.Handle(node, eth.ProtoPTPEvent, gm.onEvent)
	return gm
}

// Time returns this master's PTP time (ps) at real time t.
func (gm *Grandmaster) Time(t sim.Time) float64 { return gm.source(t) }

// hwStamp models reading a hardware timestamp: true time plus uniform
// latching jitter.
func (gm *Grandmaster) hwStamp(t sim.Time) float64 {
	j := timestampJitterNs * 1000
	return gm.Time(t) + gm.rng.Uniform(-j, j)
}

// Start begins the Sync cadence.
func (gm *Grandmaster) Start() {
	gm.stopped = false
	gm.net.Sch.After(gm.rng.UniformTime(0, gm.cfg.SyncInterval), gm.syncRound)
}

// Stop halts Sync transmission.
func (gm *Grandmaster) Stop() { gm.stopped = true }

func (gm *Grandmaster) syncRound() {
	if gm.stopped {
		return
	}
	for _, c := range gm.clients {
		// Announce precedes Sync each round (the paper: "each sync
		// message was followed by Follow_Up and Announce messages").
		gm.net.Send(&eth.Frame{
			Src: gm.node, Dst: c, Size: eth.PTPEventFrame,
			Proto: eth.ProtoPTPGeneral, Payload: announce{GM: gm.node, Priority: gm.Priority},
		})
		gm.sendSync(c)
	}
	gm.net.Sch.After(gm.cfg.SyncInterval, gm.syncRound)
}

// sendSync transmits a two-step Sync to one client: the event frame now,
// and a Follow_Up carrying the Sync's hardware TX timestamp shortly
// after the NIC reports it.
func (gm *Grandmaster) sendSync(client int) {
	gm.seq++
	seq := gm.seq
	var t1 float64
	f := &eth.Frame{
		Src: gm.node, Dst: client, Size: eth.PTPEventFrame,
		Proto: eth.ProtoPTPEvent, Payload: syncMsg{Seq: seq},
		// The NIC latches the precise TX timestamp as the Sync departs.
		OnTxStart: nil,
	}
	f.OnTxStart = func(t sim.Time) { t1 = gm.hwStamp(t) }
	if !gm.net.Send(f) {
		return // dropped at source queue; next round will retry
	}
	// The daemon emits the Follow_Up once the NIC reports the TX
	// timestamp; 100 us models the completion interrupt plus turnaround.
	gm.net.Sch.After(100*sim.Microsecond, func() {
		gm.net.Send(&eth.Frame{
			Src: gm.node, Dst: client, Size: eth.PTPEventFrame,
			Proto: eth.ProtoPTPGeneral, Payload: followUp{Seq: seq, T1: t1},
		})
	})
}

// onEvent answers Delay_Req with Delay_Resp carrying the RX hardware
// timestamp.
func (gm *Grandmaster) onEvent(f *eth.Frame, rx sim.Time) {
	req, ok := f.Payload.(delayReq)
	if !ok {
		return
	}
	t4 := gm.hwStamp(rx) - float64(f.CorrectionPs)
	gm.net.Send(&eth.Frame{
		Src: gm.node, Dst: req.Client, Size: eth.PTPEventFrame,
		Proto: eth.ProtoPTPGeneral, Payload: delayResp{Seq: req.Seq, T4: t4},
	})
}
