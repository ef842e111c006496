package ptp

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// failoverRig: star with a primary GM (node 1, priority 10), a backup
// GM (node 2, priority 20) whose clock carries a constant +300 ns bias
// (a poorer reference), and clients on nodes 3..5.
func failoverRig(t *testing.T, seed uint64) (*sim.Scheduler, *Grandmaster, *Grandmaster, []*Client) {
	t.Helper()
	sch := sim.NewScheduler()
	net, err := fabric.New(sch, seed, topo.Star(4), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().Compressed()
	clients := []int{3, 4, 5}
	primary := NewGrandmaster(net, 1, clients, cfg, seed+1)
	primary.Priority = 10
	backup := NewGrandmaster(net, 2, clients, cfg, seed+2)
	backup.Priority = 20
	backup.source = func(ts sim.Time) float64 { return float64(ts) + 300_000 } // +300 ns bias
	var cs []*Client
	for i, cn := range clients {
		c := NewClient(net, cn, 1, cfg, seed+10+uint64(i))
		c.Start()
		cs = append(cs, c)
	}
	primary.Start()
	backup.Start()
	return sch, primary, backup, cs
}

func TestBMCAPrefersLowerPriority(t *testing.T) {
	sch, _, _, cs := failoverRig(t, 1)
	sch.Run(3 * sim.Second)
	for _, c := range cs {
		if c.gm != 1 {
			t.Fatalf("client selected node %d, want primary 1", c.gm)
		}
		if c.switches != 0 {
			t.Fatalf("client switched %d times with a healthy primary", c.switches)
		}
		if off := math.Abs(c.OffsetToMasterPs()) / 1000; off > 1000 {
			t.Fatalf("client offset %.0f ns under primary", off)
		}
	}
}

func TestBMCAFailsOverAndBack(t *testing.T) {
	sch, primary, _, cs := failoverRig(t, 3)
	sch.Run(3 * sim.Second)

	// Primary dies: clients must adopt the backup within a few announce
	// timeouts and converge to its (biased) clock.
	primary.stop()
	sch.RunFor(3 * sim.Second)
	for _, c := range cs {
		if c.gm != 2 {
			t.Fatalf("client still on node %d after primary death", c.gm)
		}
		if c.switches == 0 {
			t.Fatal("no failover recorded")
		}
		// The backup runs +300 ns fast; converged clients inherit that.
		off := c.OffsetToMasterPs() / 1000
		if off < 100 || off > 500 {
			t.Fatalf("client offset %.0f ns; want ~+300 (tracking the biased backup)", off)
		}
	}

	// Primary returns: BMCA must move everyone back.
	primary.Start()
	sch.RunFor(3 * sim.Second)
	for _, c := range cs {
		if c.gm != 1 {
			t.Fatalf("client did not return to the primary (on %d)", c.gm)
		}
		if off := math.Abs(c.OffsetToMasterPs()) / 1000; off > 150 {
			t.Fatalf("client offset %.0f ns after returning to primary", off)
		}
	}
}

func TestBMCAIgnoresForeignSyncs(t *testing.T) {
	// Both masters send Syncs; clients must only consume the selected
	// one's. If foreign Syncs leaked into the servo, the +300 ns backup
	// bias would contaminate offsets under the healthy primary.
	sch, _, _, cs := failoverRig(t, 5)
	sch.Run(4 * sim.Second)
	for _, c := range cs {
		off := c.OffsetToMasterPs() / 1000
		if off > 150 {
			t.Fatalf("offset %.0f ns suggests backup Syncs leaked into the servo", off)
		}
	}
}

// TestGrandmasterRestartRunsOneSyncLoop: a stop and Start within one
// sync interval must leave one Sync loop running, not the stopped
// loop's pending round plus a fresh one at twice the rate.
func TestGrandmasterRestartRunsOneSyncLoop(t *testing.T) {
	sch, primary, _, cs := failoverRig(t, 7)
	sch.Run(sim.Second)
	primary.stop()
	primary.Start()
	before := cs[0].syncs
	sch.RunFor(10 * primary.cfg.SyncInterval)
	syncs := cs[0].syncs
	if n := syncs - before; n < 9 || n > 11 {
		t.Fatalf("%d Syncs over 10 sync intervals after a restart, want about 10", n)
	}
}

// TestRestartedClientRunsFreshLoops: a client stopped and started
// again within one Delay_Req interval sends one Delay_Req per interval,
// not two, and still fails over when its master dies.
func TestRestartedClientRunsFreshLoops(t *testing.T) {
	sch, primary, _, cs := failoverRig(t, 9)
	sch.Run(sim.Second)
	c := cs[0]
	c.stop()
	c.Start()
	before := c.resps
	sch.RunFor(10 * c.cfg.DelayReqInterval)
	if resps := c.resps; resps-before < 9 || resps-before > 11 {
		t.Fatalf("%d Delay_Resps over 10 intervals after a restart, want about 10", resps-before)
	}
	primary.stop()
	sch.RunFor(3 * sim.Second)
	if c.gm != 2 {
		t.Fatalf("restarted client still on node %d after primary death", c.gm)
	}
}

// stop halts the client's transmissions and master selection (received
// messages are ignored).
func (c *Client) stop() {
	c.stopped = true
	c.delayEv.Cancel()
	c.watchdogEv.Cancel()
}

// stop halts Sync transmission. It cancels the pending round, so a
// later Start runs one Sync loop, not two.
func (gm *Grandmaster) stop() { gm.syncEv.Cancel() }
