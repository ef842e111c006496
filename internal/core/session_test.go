package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

// TestHardenedSessionExits drives a hardened pair into every exit of
// a link session — link down, beacon-loss demotion, quarantine and its
// release — from a session in which every session field is dirty, and
// asserts that each leaves the same void session scope, the same
// untouched link-up scope and the same surviving sliding windows; the
// exits differ only in the state they land in and the timer they arm.
func TestHardenedSessionExits(t *testing.T) {
	const dirtyRejects = 2
	type world struct {
		sch *sim.Scheduler
		n   *Network
		p   *Port
		was Port // the port as dirtied: link-up scope and windows to keep
	}
	dirty := func(t *testing.T, seed uint64) *world {
		sch, n, _, _ := instrumentedHardenedPair(t, seed)
		n.Start()
		sch.Run(2 * sim.Millisecond)
		if !n.AllSynced() {
			t.Fatal("pair did not sync")
		}
		_, p := n.LinkPorts(0)
		tick := p.dev.clock.Counter()
		p.faulty, p.violationCount = true, 5
		p.peerMsb, p.havePeerMsb = 7, true
		p.pendingJoin, p.joinPending = 1, true
		p.asm = phy.NewAssembler(p.codec())
		p.admitValid, p.pullWindow, p.pulledUnits = true, tick, 3
		p.noteTarget(p.dev.GlobalCounter(), p.dev.GlobalCounter())
		p.violationWindow, p.rejectWindow, p.rejectCount = tick-10, tick-20, dirtyRejects
		return &world{sch, n, p, *p}
	}
	check := func(t *testing.T, w *world, at string, state portState, rejects int, armed *sim.Event) {
		t.Helper()
		p := w.p
		if p.state != state {
			t.Fatalf("%s: state %v, want %v", at, p.state, state)
		}
		if p.owdUnits != -1 || p.havePeerMsb || p.joinPending || p.asm != nil ||
			p.faulty || p.violationCount != 0 || p.admitValid || p.pulledUnits != 0 || p.haveTarget {
			t.Errorf("%s: session scope not void: owd %d msb %v join %v asm %v faulty %v violations %d admitValid %v pulled %d vote %v",
				at, p.owdUnits, p.havePeerMsb, p.joinPending, p.asm != nil,
				p.faulty, p.violationCount, p.admitValid, p.pulledUnits, p.haveTarget)
		}
		for _, ev := range []*sim.Event{&p.beaconEvent, &p.initEvent, &p.watchEvent, &p.quarEvent} {
			if ev.Pending() != (ev == armed) {
				t.Errorf("%s: timers pending beacon %v init %v watchdog %v cooldown %v", at,
					p.beaconEvent.Pending(), p.initEvent.Pending(), p.watchEvent.Pending(), p.quarEvent.Pending())
				break
			}
		}
		if p.cdcFill != w.was.cdcFill || p.sessionMinOwd != w.was.sessionMinOwd {
			t.Errorf("%s: link-up scope moved: cdcFill %d→%d sessionMinOwd %d→%d", at,
				w.was.cdcFill, p.cdcFill, w.was.sessionMinOwd, p.sessionMinOwd)
		}
		if p.violationWindow != w.was.violationWindow || p.rejectWindow != w.was.rejectWindow || p.rejectCount != rejects {
			t.Errorf("%s: sliding windows moved: violationWindow %d→%d rejectWindow %d→%d rejectCount %d, want %d", at,
				w.was.violationWindow, p.violationWindow, w.was.rejectWindow, p.rejectWindow, p.rejectCount, rejects)
		}
	}
	// stepUntil runs in 1 µs steps: the re-INIT that follows a demotion
	// would otherwise finish and start dirtying the next session.
	stepUntil := func(t *testing.T, w *world, what string, done func() bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			if i > 2000 {
				t.Fatalf("%s did not happen within 2 ms", what)
			}
			w.sch.RunFor(sim.Microsecond)
		}
	}

	t.Run("link down", func(t *testing.T) {
		w := dirty(t, 31)
		w.p.Down()
		check(t, w, "down", portDown, dirtyRejects, nil)
	})
	t.Run("beacon-loss demotion", func(t *testing.T) {
		w := dirty(t, 32)
		toP, _ := w.n.LinkWires(0)
		toP.SetLossP(1)
		stepUntil(t, w, "demotion", func() bool { return w.p.state != portSynced })
		check(t, w, "demoted", portInit, dirtyRejects, &w.p.initEvent)
	})
	t.Run("quarantine then release", func(t *testing.T) {
		w := dirty(t, 33)
		local := w.p.dev.GlobalCounter()
		for i := dirtyRejects; i < quarantineRejectLimit; i++ {
			if w.p.admitTarget(local+1_000_000, local, true, w.n.Sch.Now()) {
				t.Fatal("a million-unit mid-session lead was admitted")
			}
		}
		// The rejections that earned the quarantine are spent by it.
		check(t, w, "quarantined", portQuarantined, 0, &w.p.quarEvent)
		stepUntil(t, w, "release", func() bool { return w.p.state != portQuarantined })
		check(t, w, "released", portInit, 0, &w.p.initEvent)
	})
}
