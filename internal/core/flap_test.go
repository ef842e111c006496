package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// TestLinkFlapResyncWithinBound drives a cable pull and re-plug on the
// paper tree and uses the Tracer as the oracle: both port directions
// must log link_down, then link_up, then a fresh synced event (a new
// INIT round measured a new OWD), and after re-synchronization every
// adjacent offset must sit back inside the paper's 4TD bound.
func TestLinkFlapResyncWithinBound(t *testing.T) {
	sch := sim.NewScheduler()
	g := topo.PaperTree()
	reg := telemetry.New()
	tr := telemetry.NewTracer(1 << 16)
	// Lifecycle kinds only: beacons would wash the flap out of the ring.
	tr.SetKinds(telemetry.KindLinkUp, telemetry.KindLinkDown,
		telemetry.KindSynced, telemetry.KindStateChange)
	n, err := NewNetwork(sch, 77, g, DefaultConfig(), WithTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("network failed to synchronize before the flap")
	}

	const li = 0 // s0-s1: an inner link, so both subtrees keep running
	pa, pb := n.LinkPorts(li)
	downAt := sch.Now()
	n.SetLinkDown(li)
	sch.RunFor(5 * sim.Millisecond)
	upAt := sch.Now()
	n.SetLinkUp(li)
	sch.RunFor(5 * sim.Millisecond)

	if !n.AllSynced() {
		t.Fatal("network did not re-synchronize after the flap")
	}

	// Trace oracle: count per-direction lifecycle events after the pull.
	flapped := map[string]bool{pa.Name(): true, pb.Name(): true}
	downs, ups, resyncs := 0, 0, 0
	for _, e := range tr.Events() {
		if !flapped[e.Who] {
			continue
		}
		switch {
		case e.Kind == telemetry.KindLinkDown && e.At >= downAt:
			downs++
		case e.Kind == telemetry.KindLinkUp && e.At >= upAt:
			ups++
		case e.Kind == telemetry.KindSynced && e.At >= upAt:
			resyncs++
			if e.V1 < 0 {
				t.Errorf("re-sync of %s measured negative OWD %d", e.Who, e.V1)
			}
		}
	}
	if downs != 2 || ups != 2 {
		t.Fatalf("trace recorded %d link_down / %d link_up events for the flapped link, want 2/2", downs, ups)
	}
	if resyncs != 2 {
		t.Fatalf("trace recorded %d re-sync events after re-plug, want 2", resyncs)
	}

	// Precision oracle: after re-sync (JOIN has propagated), every
	// adjacent pair is back inside 4TD.
	if off, bound := n.MaxAdjacentOffset(), n.BoundUnits(); off > bound {
		t.Fatalf("adjacent offset %d ticks exceeds 4TD bound %d after flap", off, bound)
	}

	// Metrics stayed consistent: state transitions were counted and the
	// ports-up gauge is back at every port up.
	if v := reg.Counter("dtp_port_state_transitions_total", "").Value(); v == 0 {
		t.Fatal("no state transitions counted")
	}
	if up := reg.Gauge("dtp_ports_up", "").Value(); up != float64(2*len(g.Links)) {
		t.Fatalf("dtp_ports_up = %v, want %d", up, 2*len(g.Links))
	}
}
