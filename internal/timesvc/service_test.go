package timesvc

import (
	"errors"
	"testing"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// servedPair builds a two-host DTP network with h0 broadcasting UTC and
// a Service on h1, all instrumented, and runs it long enough for the
// first snapshots to publish.
type servedPair struct {
	sch *sim.Scheduler
	net *core.Network
	reg *telemetry.Registry
	svc *Service
	ld  *Load
}

// startDaemon attaches a default (moving-average) daemon on dev,
// calibrating 100x faster than the paper's once a second.
func startDaemon(t *testing.T, dev *core.Device, seed uint64) *daemon.Daemon {
	t.Helper()
	d, err := daemon.Attach(dev, daemon.Options{Config: daemon.DefaultConfig().Compressed(100)}, seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newServedPair(t *testing.T, seed uint64, qps float64) *servedPair {
	t.Helper()
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, seed, topo.Pair(), core.DefaultConfig(),
		core.WithPPM(map[string]float64{"h0": 40, "h1": -40}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}

	reg := telemetry.New()
	tr := telemetry.NewTracer(0)

	d0 := startDaemon(t, n.Devices[0], seed+100)
	d1 := startDaemon(t, n.Devices[1], seed+101)

	f := daemon.NewUTCFollower(d1, nil)
	daemon.NewUTCBroadcaster(d0, daemon.TrueUTC{Sch: sch}, 10*sim.Millisecond, []*daemon.UTCFollower{f})

	// Margin 0: the audit bound stays pure hardware 4TD; the service
	// composes the software-side error terms itself.
	aud := audit.New(n, audit.Config{}, reg, tr)
	svc := NewService(d1, f, aud, reg, tr)

	p := &servedPair{sch: sch, net: n, reg: reg, svc: svc}
	if qps > 0 {
		p.ld = NewLoad(svc, sim.NewRNG(seed, "timesvc-load/h1"), qps, reg)
	}
	return p
}

// simScale shortens the simulated soak windows under -short (the
// CI-wide race job): the full windows stay on plain `go test` and on
// `make flight`, which runs this package under -race at full length.
func simScale(d sim.Time) sim.Time {
	if testing.Short() {
		return d / 4
	}
	return d
}

func scaleN(n int) int {
	if testing.Short() {
		return n / 4
	}
	return n
}

func TestServicePublishesAndServesBoundedUTC(t *testing.T) {
	p := newServedPair(t, 21, 0)
	p.sch.RunFor(simScale(2 * sim.Second))

	if min := uint64(scaleN(100)); p.svc.Publishes() < min {
		t.Fatalf("only %d publishes at 10 ms cadence, want >= %d", p.svc.Publishes(), min)
	}

	// Sample the in-sim clock against ground truth over another second.
	var widths []float64
	for i := 0; i < scaleN(200); i++ {
		p.sch.RunFor(5 * sim.Millisecond)
		w, covered, err := p.svc.ReadCheck()
		if err != nil {
			t.Fatalf("read %d failed: %v", i, err)
		}
		if !covered {
			t.Fatalf("read %d: true time outside the served interval (width %.0f ps)", i, w)
		}
		widths = append(widths, w)
	}
	// Width sanity: ε combines the audit bound, both daemons'
	// self-reported errors, and the broadcast residual; a 1-hop pair
	// sits around half a microsecond, widening to ~1 µs for one
	// calibration interval when a PCIe contention spike inflates a
	// daemon's self-reported bound. It can't be implausibly tight
	// either.
	for _, w := range widths {
		if w > 2e6 {
			t.Fatalf("interval width %.0f ps (> 2 µs) on a 1-hop pair", w)
		}
		if w < 1000 {
			t.Fatalf("interval width %.0f ps (< 1 ns): bound composition implausibly tight", w)
		}
	}
}

func TestServiceEpochAdvancesPerPublish(t *testing.T) {
	p := newServedPair(t, 23, 0)
	p.sch.RunFor(simScale(500 * sim.Millisecond))
	e1 := p.svc.Store().Epoch()
	if e1 == 0 {
		t.Fatal("no snapshot after the warmup window")
	}
	p.sch.RunFor(simScale(500 * sim.Millisecond))
	e2 := p.svc.Store().Epoch()
	if e2 <= e1 {
		t.Fatalf("epoch did not advance: %d -> %d", e1, e2)
	}
	if p.svc.Publishes() != e2 {
		t.Fatalf("Publishes() = %d but epoch = %d", p.svc.Publishes(), e2)
	}
}

func TestServiceFailsClosedWhenStopped(t *testing.T) {
	p := newServedPair(t, 25, 0)
	p.sch.RunFor(simScale(1 * sim.Second))
	if _, _, err := p.svc.ReadCheck(); err != nil {
		t.Fatalf("healthy read failed: %v", err)
	}

	// Stop calibration: the last snapshot keeps serving until MaxAge
	// (8 × 10 ms), then reads fail closed.
	p.svc.Stop()
	p.sch.RunFor(50 * sim.Millisecond)
	if _, _, err := p.svc.ReadCheck(); err != nil {
		t.Fatalf("read within MaxAge after stop failed: %v", err)
	}
	p.sch.RunFor(100 * sim.Millisecond)
	_, _, err := p.svc.ReadCheck()
	if !errors.Is(err, ErrStale) {
		t.Fatalf("read past MaxAge err = %v, want ErrStale", err)
	}
}

func TestServiceDegradedBeforeBroadcast(t *testing.T) {
	// No broadcaster at all: every tick must degrade (no broadcast), no
	// snapshot may publish, reads fail with errNoSnapshot.
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, 27, topo.Pair(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)

	d := startDaemon(t, n.Devices[1], 41)
	f := daemon.NewUTCFollower(d, nil)
	// Margin 0: the audit bound stays pure hardware 4TD; the service
	// composes the software-side error terms itself.
	aud := audit.New(n, audit.Config{}, nil, nil)
	svc := NewService(d, f, aud, telemetry.New(), nil)
	sch.RunFor(simScale(500 * sim.Millisecond))

	if svc.Publishes() != 0 {
		t.Fatalf("%d publishes without any UTC broadcast", svc.Publishes())
	}
	if svc.DegradedTicks() == 0 {
		t.Fatal("no degraded ticks counted")
	}
	if _, _, err := svc.ReadCheck(); !errors.Is(err, errNoSnapshot) {
		t.Fatalf("read err = %v, want errNoSnapshot", err)
	}
}

func TestLoadObservesCoverageAndWidth(t *testing.T) {
	p := newServedPair(t, 29, 5000)
	// Warm up until the first snapshot exists, then measure. The warmup
	// window is NOT scaled down: the follower needs its WarmupPairs
	// broadcasts regardless of how long the measurement runs.
	p.sch.RunFor(200 * sim.Millisecond)
	warmupErrs := p.ld.Errors()
	p.sch.RunFor(simScale(2 * sim.Second))

	if min := uint64(scaleN(5000)); p.ld.Reads() < min {
		t.Fatalf("only %d simulated reads at 5000 qps, want >= %d", p.ld.Reads(), min)
	}
	if e := p.ld.Errors(); e != warmupErrs {
		t.Fatalf("%d reads failed closed after warmup", e-warmupErrs)
	}
	ok := p.ld.Reads() - p.ld.Errors()
	if p.ld.Covered() != ok {
		t.Fatalf("%d of %d successful reads not covered by their interval",
			ok-p.ld.Covered(), ok)
	}
	if w := p.ld.meanWidthPs(); w <= 0 || w > 1e6 {
		t.Fatalf("mean width %.0f ps implausible", w)
	}
}
