package core

import (
	"fmt"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// A run must leave no arrival due in any inbox, even one whose instant
// falls after the run's last event: whatever is read after Run returns
// (the registry, a port's fields) then sees the state the scheduler's
// own evSettled events would have left.
func TestRunLeavesNoDueArrival(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, topo.PaperTree(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(3 * sim.Millisecond)
	filed := InboxArrivals(n)
	for i := 0; i < 2000; i++ {
		sch.RunFor(sim.Time(1 + i%97*131)) // steps that end between events
		for _, d := range n.Devices {
			if d.inN > 0 && sch.Due(d.in[d.inHd].at, d.in[d.inHd].key) {
				t.Fatalf("step %d at %v: %s holds a due arrival", i, sch.Now(), d.Name())
			}
		}
	}
	if InboxArrivals(n) == filed {
		t.Fatal("no arrival took an inbox")
	}
}

// An OnOffset hook installed mid-run must see every sample at its
// beacon's own instant, in time order, as the five-event chain does:
// arrivals filed before it was installed go back to the scheduler, as
// the events of their flights, which a rate change at once cancels.
func TestOnOffsetInstalledMidRun(t *testing.T) {
	run := func(rateChange bool) (log []string, filed uint64, held int) {
		sch := sim.NewScheduler()
		n, err := NewNetwork(sch, 1, topo.PaperTree(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		sch.Run(3 * sim.Millisecond)
		// Stop between a beacon's landing and its processing tick, so
		// arrivals are filed when the hook arrives.
		sch.RunFor(3 * sim.Nanosecond)
		filed = InboxArrivals(n)
		for _, d := range n.Devices {
			held += d.inN
		}
		n.SetOnOffset(func(rx *Port, off int64) {
			log = append(log, fmt.Sprintf("%v %s %d", sch.Now(), rx.PairName(), off))
		})
		if rateChange {
			for _, d := range n.Devices {
				d.Clock().AdjustPPM(d.PPM() + 1)
			}
		}
		sch.RunFor(200 * sim.Microsecond)
		for _, d := range n.Devices {
			for _, p := range d.Ports() {
				sent, rx, ignored, jumps := p.Stats()
				log = append(log, fmt.Sprintf("%s %d %d %d %d", p.PairName(), sent, rx, ignored, jumps))
			}
		}
		return log, InboxArrivals(n) - filed, held
	}
	for _, rateChange := range []bool{false, true} {
		fused, after, held := run(rateChange)
		was := SetFusedChain(false)
		chain, _, _ := run(rateChange)
		SetFusedChain(was)
		if held == 0 {
			t.Fatal("no arrival was filed when the hook was installed")
		}
		if after != 0 {
			t.Errorf("rate change %v: %d arrivals took an inbox with a hook set", rateChange, after)
		}
		if len(fused) != len(chain) {
			t.Fatalf("rate change %v: %d samples, five-event chain %d", rateChange, len(fused), len(chain))
		}
		for i := range fused {
			if fused[i] != chain[i] {
				t.Fatalf("rate change %v: sample %d: %q, five-event chain %q", rateChange, i, fused[i], chain[i])
			}
		}
	}
}
