package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// internal/sim proves lanes + calendar and the heap reference dispatch
// synthetic event streams in the same order; this runs the whole model
// on both. Same topology and seed, one network per queue discipline,
// stepped together from link-up to a few simulated milliseconds past
// sync: the event count, the worst pairwise offset at every step and
// every device's counter at the end must be identical.
func TestNetworkLaneHeapEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    topo.Graph
	}{
		{"tree", topo.PaperTree()},
		{"fattree4", topo.FatTree(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lanes, heap := sim.NewScheduler(), sim.NewHeapScheduler()
			var nets [2]*Network
			for i, sch := range []*sim.Scheduler{lanes, heap} {
				n, err := NewNetwork(sch, 7, tc.g, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				n.Start()
				nets[i] = n
			}
			const step = 250 * sim.Microsecond
			for s := 1; s <= 24; s++ { // 6 ms; both topologies sync in the first
				lanes.RunFor(step)
				heap.RunFor(step)
				if a, b := nets[0].MaxPairwiseOffset(), nets[1].MaxPairwiseOffset(); a != b {
					t.Fatalf("t=%v: max pairwise offset %d on lanes, %d on the heap", lanes.Now().Std(), a, b)
				}
			}
			if !nets[0].AllSynced() || !nets[1].AllSynced() {
				t.Fatal("network did not sync; the comparison never reached steady state")
			}
			if a, b := lanes.Processed(), heap.Processed(); a != b {
				t.Fatalf("%d events on lanes, %d on the heap", a, b)
			}
			for i, d := range nets[0].Devices {
				if a, b := d.GlobalCounter(), nets[1].Devices[i].GlobalCounter(); a != b {
					t.Fatalf("%s: counter %d on lanes, %d on the heap", d.Name(), a, b)
				}
			}
		})
	}
}
