package ptp

import (
	"fmt"
	"slices"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
)

// Client is a PTP slave: a host whose PHC is disciplined to the
// grandmaster through Sync/Follow_Up (offset) and Delay_Req/Delay_Resp
// (path delay), with delay-window filtering and a PI servo — the
// standard structure of ptp4l/Timekeeper-class daemons.
type Client struct {
	net  *fabric.Network
	cfg  Config
	rng  *sim.RNG
	node int
	gm   int

	PHC *PHC

	// Sync pairing state.
	pendingT2 map[uint64]float64 // seq -> corrected t2
	lastT1    float64
	lastT2    float64
	haveSync  bool

	// Delay measurement state.
	reqSeq     uint64
	pendingReq map[uint64]float64 // seq -> t3 latched at TX
	delayWin   []float64          // recent path delay samples (ps)
	pathDelay  float64            // filtered (min of window)
	haveDelay  bool

	// Offset filtering + servo.
	offsetWin []float64
	servo     servo
	stopped   bool
	// synced flips after the first clock correction: like production
	// daemons, the very first measurement steps the clock uncondition-
	// ally, and the servo slews from there.
	synced bool

	// Best-master-clock state (§2.4.2): announced masters and their
	// freshness; the client follows the lowest-priority live master and
	// fails over when its announces stop.
	masters map[int]masterInfo

	// Stats.
	syncs, resps uint64
	steps        uint64
	switches     uint64

	// OnSample, if set, receives each filtered offset estimate (ps).
	OnSample func(offsetPs float64)
}

// NewClient installs a PTP client at the host node, its PHC initialized
// with a random phase error (up to ±1 ms) and an oscillator error drawn
// from ±ppmRange.
func NewClient(n *fabric.Network, node, gm int, cfg Config, seed uint64) *Client {
	rng := sim.NewRNG(seed, fmt.Sprintf("ptp/client/%d", node))
	c := &Client{
		net: n, cfg: cfg, node: node, gm: gm, rng: rng,
		PHC:        NewPHC(n.Sch, rng.Uniform(-ppmRange, ppmRange)),
		pendingT2:  map[uint64]float64{},
		pendingReq: map[uint64]float64{},
	}
	c.masters = map[int]masterInfo{}
	c.PHC.Step(rng.Uniform(-1e9, 1e9)) // ±1 ms initial phase error
	n.Handle(node, eth.ProtoPTPEvent, c.onEvent)
	n.Handle(node, eth.ProtoPTPGeneral, c.onGeneral)
	if cfg.WanderInterval > 0 && cfg.WanderStepPPB > 0 {
		n.Sch.After(cfg.WanderInterval, c.wander)
	}
	// BMCA watchdog: re-evaluate master liveness every sync interval.
	n.Sch.After(cfg.SyncInterval, c.bmcaWatchdog)
	return c
}

// masterInfo tracks one announced master.
type masterInfo struct {
	priority int
	lastSeen sim.Time
}

// bmcaWatchdog prunes dead masters and re-selects.
func (c *Client) bmcaWatchdog() {
	if c.stopped {
		return
	}
	c.selectMaster()
	c.net.Sch.After(c.cfg.SyncInterval, c.bmcaWatchdog)
}

// selectMaster implements the best-master-clock decision: lowest
// priority among masters announced within the last three sync
// intervals; ties break toward the lower node ID. The bootstrap master
// stays selected until any announce arrives.
func (c *Client) selectMaster() {
	now := c.net.Sch.Now()
	horizon := now - 3*c.cfg.SyncInterval
	best, bestPrio := -1, int(^uint(0)>>1)
	for node, m := range c.masters {
		if m.lastSeen < horizon {
			continue
		}
		if m.priority < bestPrio || (m.priority == bestPrio && node < best) {
			best, bestPrio = node, m.priority
		}
	}
	if best < 0 || best == c.gm {
		return
	}
	// Fail over: drop all state tied to the old master.
	c.gm = best
	c.switches++
	c.haveSync = false
	c.haveDelay = false
	c.delayWin = c.delayWin[:0]
	c.offsetWin = c.offsetWin[:0]
	c.pendingT2 = map[uint64]float64{}
	c.pendingReq = map[uint64]float64{}
	c.servo.reset()
	c.synced = false // first measurement against the new master steps
}

// MasterSwitches reports how many BMCA failovers occurred.
func (c *Client) MasterSwitches() uint64 { return c.switches }

// Master returns the currently selected master node.
func (c *Client) Master() int { return c.gm }

// Start begins the Delay_Req cadence.
func (c *Client) Start() {
	c.stopped = false
	c.net.Sch.After(c.rng.UniformTime(0, c.cfg.DelayReqInterval), c.delayRound)
}

// Stop halts the client's transmissions (received messages are ignored).
func (c *Client) Stop() { c.stopped = true }

// OffsetToMasterPs is ground truth: PHC time minus true time at the
// current instant. This is what Figures 6d–f plot.
func (c *Client) OffsetToMasterPs() float64 {
	now := c.net.Sch.Now()
	return c.PHC.At(now) - float64(now)
}

// Stats returns protocol counters.
func (c *Client) Stats() (syncs, delayResps, steps uint64) {
	return c.syncs, c.resps, c.steps
}

func (c *Client) wander() {
	ppm := c.PHC.HwPPM() + c.rng.Normal(0, c.cfg.WanderStepPPB/1000)
	if ppm > ppmRange {
		ppm = ppmRange
	}
	if ppm < -ppmRange {
		ppm = -ppmRange
	}
	c.PHC.SetHwPPM(ppm)
	c.net.Sch.After(c.cfg.WanderInterval, c.wander)
}

// hwStamp reads the NIC's hardware timestamp for an event at real time
// t: the PHC value plus latching jitter.
func (c *Client) hwStamp(t sim.Time) float64 {
	j := timestampJitterNs * 1000
	return c.PHC.At(t) + c.rng.Uniform(-j, j)
}

// --- Receive paths ------------------------------------------------------

func (c *Client) onEvent(f *eth.Frame, rx sim.Time) {
	if c.stopped || f.Src != c.gm {
		return // Syncs from non-selected masters are ignored
	}
	if m, ok := f.Payload.(syncMsg); ok {
		// t2: hardware RX timestamp minus accumulated transparent-clock
		// correction.
		c.pendingT2[m.Seq] = c.hwStamp(rx) - float64(f.CorrectionPs)
		c.syncs++
		// Bound the pending map: drop entries older than a few rounds.
		if len(c.pendingT2) > 16 {
			for k := range c.pendingT2 {
				if k+8 < m.Seq {
					delete(c.pendingT2, k)
				}
			}
		}
	}
}

func (c *Client) onGeneral(f *eth.Frame, rx sim.Time) {
	if c.stopped {
		return
	}
	switch m := f.Payload.(type) {
	case announce:
		c.masters[m.GM] = masterInfo{priority: m.Priority, lastSeen: rx}
		c.selectMaster()
		return
	case followUp:
		if f.Src != c.gm {
			return
		}
		t2, ok := c.pendingT2[m.Seq]
		if !ok {
			return
		}
		delete(c.pendingT2, m.Seq)
		c.lastT1, c.lastT2, c.haveSync = m.T1, t2, true
		c.onOffsetSample(t2 - m.T1)
	case delayResp:
		if f.Src != c.gm {
			return
		}
		t3, ok := c.pendingReq[m.Seq]
		if !ok {
			return
		}
		delete(c.pendingReq, m.Seq)
		if !c.haveSync {
			return
		}
		// delay = ((t2 - t1) + (t4 - t3)) / 2
		d := ((c.lastT2 - c.lastT1) + (m.T4 - t3)) / 2
		if d < 0 {
			d = 0 // clock slew distorted the intervals; a path never has negative delay
		}
		c.pushDelay(d)
	}
}

// delayRound sends a Delay_Req.
func (c *Client) delayRound() {
	if c.stopped {
		return
	}
	c.reqSeq++
	seq := c.reqSeq
	f := &eth.Frame{
		Src: c.node, Dst: c.gm, Size: eth.PTPEventFrame,
		Proto: eth.ProtoPTPEvent, Payload: delayReq{Seq: seq, Client: c.node},
		// t3 is latched by the NIC at the departure instant, like real
		// hardware timestamping; reconstructing it later through a
		// stepped/slewed PHC would corrupt the delay measurement.
		OnTxStart: nil,
	}
	f.OnTxStart = func(t sim.Time) { c.pendingReq[seq] = c.hwStamp(t) }
	if c.net.Send(f) {
		if len(c.pendingReq) > 16 {
			for k := range c.pendingReq {
				if k+8 < seq {
					delete(c.pendingReq, k)
				}
			}
		}
	}
	c.net.Sch.After(c.cfg.DelayReqInterval, c.delayRound)
}

// pushDelay adds a path-delay sample and refreshes the filtered value:
// the minimum of the window, the standard defense against queueing (a
// queued probe only ever measures too much).
func (c *Client) pushDelay(d float64) {
	c.resps++
	c.delayWin = append(c.delayWin, d)
	if len(c.delayWin) > filterWindow {
		c.delayWin = c.delayWin[1:]
	}
	min := c.delayWin[0]
	for _, v := range c.delayWin[1:] {
		if v < min {
			min = v
		}
	}
	c.pathDelay = min
	c.haveDelay = true
}

// onOffsetSample processes a Sync-derived offset measurement
// (t2 - t1 = offset + delay) through the filter and servo.
func (c *Client) onOffsetSample(t2MinusT1 float64) {
	if !c.haveDelay {
		return // need a path delay estimate first
	}
	offset := t2MinusT1 - c.pathDelay

	// The reported (smoothed) offset keeps a median window, as the
	// paper notes commercial deployments do; the servo consumes raw
	// samples — a median's group delay in the control loop would
	// destabilize it.
	c.offsetWin = append(c.offsetWin, offset)
	if len(c.offsetWin) > filterWindow {
		c.offsetWin = c.offsetWin[1:]
	}
	if c.OnSample != nil {
		c.OnSample(median(c.offsetWin))
	}

	if !c.synced || offset > stepThresholdNs*1000 || offset < -stepThresholdNs*1000 {
		c.PHC.Step(-offset)
		c.synced = true
		c.steps++
		c.offsetWin = c.offsetWin[:0]
		c.servo.reset()
		return
	}
	c.PHC.AdjFreq(c.servo.update(offset, c.cfg.SyncInterval))
}

func median(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	tmp := slices.Clone(w)
	slices.Sort(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
