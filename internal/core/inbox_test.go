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
// beacon's own instant, per link direction in time order, as the
// five-event chain does: arrivals already filed when it is installed,
// and those filed after, which a rate change at once hands back to
// their events (Device.refileFlights) or the inbox keeps taking.
func TestOnOffsetInstalledMidRun(t *testing.T) {
	run := func(rateChange bool) (byPair map[string][]string, stats []string, filed uint64, held int) {
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
		byPair = map[string][]string{}
		n.OnOffset = func(rx *Port, at sim.Time, off int64) {
			byPair[rx.PairName()] = append(byPair[rx.PairName()], fmt.Sprintf("%v %d", at, off))
		}
		if rateChange {
			for _, d := range n.Devices {
				d.Clock().AdjustPPM(d.PPM() + 1)
			}
		}
		sch.RunFor(200 * sim.Microsecond)
		for _, d := range n.Devices {
			for _, p := range d.Ports() {
				sent, rx, ignored, jumps := p.Stats()
				stats = append(stats, fmt.Sprintf("%s %d %d %d %d", p.PairName(), sent, rx, ignored, jumps))
			}
		}
		return byPair, stats, InboxArrivals(n) - filed, held
	}
	for _, rateChange := range []bool{false, true} {
		fused, fusedStats, after, held := run(rateChange)
		was := SetFusedChain(false)
		chain, chainStats, _, _ := run(rateChange)
		SetFusedChain(was)
		if held == 0 {
			t.Fatal("no arrival was filed when the hook was installed")
		}
		if after == 0 {
			t.Errorf("rate change %v: no arrival took an inbox with a hook set", rateChange)
		}
		if len(fused) != len(chain) {
			t.Fatalf("rate change %v: samples on %d link directions, five-event chain %d", rateChange, len(fused), len(chain))
		}
		for pair, c := range chain {
			f := fused[pair]
			if len(f) != len(c) {
				t.Fatalf("rate change %v: %s: %d samples, five-event chain %d", rateChange, pair, len(f), len(c))
			}
			for i := range f {
				if f[i] != c[i] {
					t.Fatalf("rate change %v: %s sample %d: %q, five-event chain %q", rateChange, pair, i, f[i], c[i])
				}
			}
		}
		for i := range fusedStats {
			if fusedStats[i] != chainStats[i] {
				t.Fatalf("rate change %v: %q, five-event chain %q", rateChange, fusedStats[i], chainStats[i])
			}
		}
	}
}
