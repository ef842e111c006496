package dtp

import (
	"runtime"
	"testing"
	"time"
)

// The tentpole acceptance criterion, measured at the system level: once
// every link is synced and the scheduler's arena has reached its
// high-water mark, the steady-state beacon loop — beacon fire, TX
// insertion, wire transit, RX pipeline, CDC alignment, message
// processing, counter jumps, watchdog churn — runs without a single
// heap allocation. Wander is disabled (its resampling closure is an
// intentional cold-path allocation), telemetry is unattached, and the
// beacon cadence is a sparse 60000 ticks.
func TestSteadyStateBeaconLoopZeroAlloc(t *testing.T) {
	requireZeroAllocRun(t, 60000, false)
}

// The same loop with System.Audit attached: the auditor reschedules
// itself as a sim.Actor and sweeps over preallocated per-pair slices,
// so a clean audited run (a sweep every 100 µs) allocates nothing
// either. Beacon 1200 rather than 60000: at 60000 the bound does not
// hold, and a violation's trace event allocates by design.
func TestAuditedSteadyStateZeroAlloc(t *testing.T) {
	requireZeroAllocRun(t, 1200, true)
}

func requireZeroAllocRun(t *testing.T, beaconTicks uint64, audited bool) {
	g, err := ParseTopology("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(g, WithSeed(1), WithBeaconInterval(beaconTicks))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var aud *Auditor
	if audited {
		aud = sys.Audit(AuditOptions{})
	}
	sys.Start()
	if err := sys.RunUntilSynced(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Warm up past INIT residue: arena growth, watchdog arming, the
	// first few beacon rounds.
	sys.Run(100 * time.Millisecond)

	// AllocsPerRun pins to one OS thread and counts mallocs directly;
	// GC percent is irrelevant, but keep the loop comfortably long so
	// hundreds of beacon rounds (and their cancel-heavy watchdog
	// re-arms) are inside the measured window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var pairs0 uint64
	if audited {
		pairs0 = aud.PairChecks()
	}
	avg := testing.AllocsPerRun(10, func() {
		sys.Run(10 * time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("steady-state loop (audited: %v) allocates %.1f times per 10 ms window, want 0", audited, avg)
	}
	if audited && (aud.PairChecks() == pairs0 || aud.Violations() != 0) {
		t.Fatalf("audited window is not a clean sweep: %s", aud.Summary())
	}
}
