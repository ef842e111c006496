package core

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// budgetWindow is a steady stretch of a run: every world is synced well
// before it starts.
const (
	budgetFrom   = 3 * sim.Millisecond
	budgetLength = sim.Millisecond
)

// budgetRun counts the scheduler events and the beacons sent in the
// budget window of g at seed 1, with the default config and wander
// (1 ms steps of 100 ppb). fused picks the beacon chain.
func budgetRun(t *testing.T, g topo.Graph, fused bool) (events, beacons uint64) {
	t.Helper()
	defer func(was bool) { fuseChain = was }(fuseChain)
	fuseChain = fused
	cfg := DefaultConfig()
	cfg.WanderInterval, cfg.WanderStepPPB = sim.Millisecond, 100
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(budgetFrom)
	if !n.AllSynced() {
		t.Fatal("not synced when the budget window opens")
	}
	sent := func() (s uint64) {
		for _, d := range n.Devices {
			for _, p := range d.ports {
				s += p.beaconsSent
			}
		}
		return s
	}
	e0, b0 := sch.Processed(), sent()
	sch.RunFor(budgetLength)
	return sch.Processed() - e0, sent() - b0
}

// allocsPerSimMs is the steady-state allocation rate of a synced paper
// tree without wander, whose re-arming closure allocates by design.
func allocsPerSimMs(t *testing.T) float64 {
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, topo.PaperTree(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(budgetFrom)
	return testing.AllocsPerRun(3, func() { sch.RunFor(sim.Millisecond) })
}

// TestEngineBudget pins what the engine costs in units that do not
// depend on the machine: scheduler events per simulated millisecond and
// per beacon, allocations, and the size of the structures a beacon
// touches. Every entry is an equality unless marked as a ceiling. A
// change that moves one edits the table and says why; a one-event
// change to the beacon path moves every event count.
func TestEngineBudget(t *testing.T) {
	pairEvents, _ := budgetRun(t, topo.Pair(), true)
	treeEvents, treeBeacons := budgetRun(t, topo.PaperTree(), true)
	ft4Events, _ := budgetRun(t, topo.FatTree(4), true)
	// The five-event chain, the reference flights are tested against.
	chainEvents, chainBeacons := budgetRun(t, topo.PaperTree(), false)
	perBeacon := func(events, beacons uint64) float64 {
		return float64((events*10_000 + beacons/2) / beacons) // x1e4, rounded
	}
	slots, _ := reflect.TypeOf(sim.Scheduler{}).FieldByName("slots")
	for _, row := range []struct {
		name      string
		got, want float64
		ceiling   bool
	}{
		{"events per sim-ms, pair", float64(pairEvents), 4722, false},
		{"events per sim-ms, paper tree", float64(treeEvents), 51931, false},
		{"events per sim-ms, fattree:4", float64(ft4Events), 226562, false},
		{"beacons sent per sim-ms, paper tree", float64(treeBeacons), 17189, false},
		{"events per beacon x1e4, paper tree", perBeacon(treeEvents, treeBeacons), 30212, false},
		{"events per beacon x1e4, five-event chain", perBeacon(chainEvents, chainBeacons), 50209, false},
		{"allocations per sim-ms, paper tree", allocsPerSimMs(t), 0, false},
		{"Port bytes", float64(unsafe.Sizeof(Port{})), 392, true},
		{"event slot bytes", float64(slots.Type.Elem().Size()), 72, false},
	} {
		switch {
		case row.ceiling && row.got > row.want:
			t.Errorf("%s: %v, over the ceiling of %v", row.name, row.got, row.want)
		case !row.ceiling && row.got != row.want:
			t.Errorf("%s: %v, want %v", row.name, row.got, row.want)
		}
	}
}
