package daemon

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// syncedPair builds a running two-node DTP network.
func syncedPair(t *testing.T, seed uint64) (*sim.Scheduler, *core.Network) {
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
	return sch, n
}

// attach connects a default (moving-average) daemon; cfg is valid in
// every test here, so an error is a test bug.
func attach(t *testing.T, dev *core.Device, cfg Config, seed uint64) *Daemon {
	t.Helper()
	d, err := Attach(dev, Options{Config: cfg}, seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDaemonSmoothedOffsetWithin4Ticks(t *testing.T) {
	// Figure 7b: moving average with window 10 brings offsets to
	// usually within ±4 ticks (~25.6 ns). This asserts the stricter p99,
	// where Figure 7b and Fig7 read p95, and the p99 depends on the seed:
	// 2.53 on these seeds (pair 3, daemon 9), 3.52 on 1/7, and 4.01 on
	// the golden discipline pair's 21/23. Keep it apart from that table.
	sch, n := syncedPair(t, 3)
	cfg := DefaultConfig().Compressed(100)
	d := attach(t, n.Devices[0], cfg, 9)
	var rawSeq []float64
	d.OnSample = func(off float64) { rawSeq = append(rawSeq, off) }
	sch.RunFor(5 * sim.Second)
	sm := stats.MovingAverage(rawSeq, 10)
	s := stats.NewSummary(0)
	for _, v := range sm[10:] {
		s.Add(v)
	}
	p99 := s.QuantileAbs(0.99)
	if p99 > 4 {
		t.Fatalf("smoothed offset p99 = %.2f ticks, paper says usually <= 4", p99)
	}
}

func TestDaemonEstimateTracksCounter(t *testing.T) {
	sch, n := syncedPair(t, 5)
	d := attach(t, n.Devices[1], DefaultConfig().Compressed(100), 11)
	sch.RunFor(2 * sim.Second)
	est := d.Estimate()
	truth := float64(n.Devices[1].GlobalCounter())
	if math.Abs(est-truth) > 50 {
		t.Fatalf("estimate %f vs counter %f", est, truth)
	}
	if d.Device() != n.Devices[1] {
		t.Fatal("device accessor")
	}
}

func TestDaemonStop(t *testing.T) {
	sch, n := syncedPair(t, 7)
	d := attach(t, n.Devices[0], DefaultConfig().Compressed(100), 13)
	sch.RunFor(sim.Second)
	c := d.calibrations()
	d.Stop()
	sch.RunFor(sim.Second)
	if d.calibrations() != c {
		t.Fatal("stopped daemon kept calibrating")
	}
}

func TestDaemonBeforeFirstCalibration(t *testing.T) {
	_, n := syncedPair(t, 9)
	d := attach(t, n.Devices[0], DefaultConfig(), 15)
	if d.Estimate() != 0 {
		t.Fatal("estimate before calibration should be 0")
	}
}

// End-to-end precision (§1): two daemons on directly connected devices;
// the difference between their estimates must stay within 4TD + 8T =
// 4 + 16 = 20 ticks usually (we allow p99).
func TestEndToEndSoftwarePrecision(t *testing.T) {
	sch, n := syncedPair(t, 11)
	cfg := DefaultConfig().Compressed(100)
	d0 := attach(t, n.Devices[0], cfg, 17)
	d1 := attach(t, n.Devices[1], cfg, 19)
	sch.RunFor(sim.Second) // calibrations under way
	s := stats.NewSummary(0)
	for i := 0; i < 3000; i++ {
		sch.RunFor(sim.Millisecond)
		s.Add(d0.Estimate() - d1.Estimate())
	}
	p99 := s.QuantileAbs(0.99)
	if p99 > 20 {
		t.Fatalf("end-to-end daemon offset p99 = %.1f ticks, bound 4TD+8T = 20", p99)
	}
}

func TestExternalSyncUTC(t *testing.T) {
	// §5.2: followers learn UTC from broadcast (counter, UTC) pairs;
	// their UTC error is bounded by daemon precision plus broadcast
	// estimation error — microsecond-class at worst, typically ~100ns.
	sch, n := syncedPair(t, 13)
	cfg := DefaultConfig().Compressed(100)
	d0 := attach(t, n.Devices[0], cfg, 21)
	d1 := attach(t, n.Devices[1], cfg, 23)
	f := NewUTCFollower(d1, nil)
	b := NewUTCBroadcaster(d0, TrueUTC{Sch: sch}, 50*sim.Millisecond, []*UTCFollower{f})
	if _, err := f.UTC(); err == nil {
		t.Fatal("UTC available before any broadcast")
	}
	sch.RunFor(2 * sim.Second)
	if f.received() == 0 {
		t.Fatal("no broadcasts received")
	}
	s := stats.NewSummary(0)
	for i := 0; i < 500; i++ {
		sch.RunFor(sim.Millisecond)
		s.Add(f.UTCErrorPs())
	}
	if s.MaxAbs() > 2e6 { // 2 us
		t.Fatalf("UTC error reached %.0f ps", s.MaxAbs())
	}
	b.Stop()
	got := f.received()
	sch.RunFor(sim.Second)
	if f.received() != got {
		t.Fatal("stopped broadcaster kept sending")
	}
}

// UTCErrorPs promises |UTC estimate - true time|; regression for the
// version that returned the signed difference.
func TestUTCErrorPsIsMagnitude(t *testing.T) {
	sch, n := syncedPair(t, 17)
	cfg := DefaultConfig().Compressed(100)
	d0 := attach(t, n.Devices[0], cfg, 25)
	d1 := attach(t, n.Devices[1], cfg, 27)
	f := NewUTCFollower(d1, nil)
	NewUTCBroadcaster(d0, TrueUTC{Sch: sch}, 20*sim.Millisecond, []*UTCFollower{f})
	if !math.IsInf(f.UTCErrorPs(), 1) {
		t.Fatal("error before first broadcast should be +Inf")
	}
	sch.RunFor(2 * sim.Second)
	sawNonZero := false
	for i := 0; i < 500; i++ {
		sch.RunFor(sim.Millisecond)
		e := f.UTCErrorPs()
		if e < 0 {
			t.Fatalf("UTCErrorPs returned signed value %.0f ps", e)
		}
		signed := f.utcSignedErrorPs()
		if math.Abs(signed) != e {
			t.Fatalf("UTCErrorPs %.0f != |signed error %.0f|", e, signed)
		}
		if signed < 0 {
			sawNonZero = true
		}
	}
	// The magnitude contract only bites when the estimate runs behind
	// true time; make sure the run actually exercised that side.
	if !sawNonZero {
		t.Log("estimate never ran behind true time this run; magnitude check weak")
	}
}

// deliver must drop pairs whose counter does not advance: anchoring on
// them would poison interpolation and a ratio update would divide by a
// non-positive span.
func TestFollowerDropsStalePairs(t *testing.T) {
	sch, n := syncedPair(t, 19)
	d := attach(t, n.Devices[1], DefaultConfig().Compressed(100), 29)
	sch.RunFor(sim.Second)
	f := NewUTCFollower(d, nil)

	f.deliver(UTCBroadcast{Counter: 1000, UTC: 1e9})
	f.deliver(UTCBroadcast{Counter: 2000, UTC: 2e9})
	anchor, _ := f.Anchor()
	ratio := f.Ratio()

	// Duplicate and regressing counters: both must be dropped whole —
	// no anchor movement, no ratio update.
	f.deliver(UTCBroadcast{Counter: 2000, UTC: 3e9})
	f.deliver(UTCBroadcast{Counter: 1500, UTC: 4e9})
	if got, _ := f.Anchor(); got != anchor {
		t.Fatalf("stale pair moved the anchor: %+v -> %+v", anchor, got)
	}
	if f.Ratio() != ratio {
		t.Fatalf("stale pair changed the ratio: %g -> %g", ratio, f.Ratio())
	}
	if f.stalePairs() != 2 {
		t.Fatalf("stalePairs = %d, want 2", f.stalePairs())
	}
	if f.received() != 4 {
		t.Fatalf("Received = %d, want 4 (stale pairs still count as consumed)", f.received())
	}

	// A fresh advancing pair resumes normal anchoring.
	f.deliver(UTCBroadcast{Counter: 3000, UTC: 3e9})
	if got, _ := f.Anchor(); got.Counter != 3000 {
		t.Fatalf("advancing pair not anchored: %+v", got)
	}
}

// The residual tracker converges toward the follower's one-interval
// prediction error.
func TestFollowerResidualTracksPredictionError(t *testing.T) {
	sch, n := syncedPair(t, 23)
	d := attach(t, n.Devices[1], DefaultConfig().Compressed(100), 31)
	sch.RunFor(sim.Second)
	f := NewUTCFollower(d, nil)
	if f.ResidualPs() != 0 {
		t.Fatal("residual nonzero before broadcasts")
	}
	// Perfectly linear pairs at the nominal ratio: residuals ~ 0.
	ratio := f.Ratio()
	for i := 0; i < 20; i++ {
		c := 1000 * float64(i+1)
		f.deliver(UTCBroadcast{Counter: c, UTC: c * ratio})
	}
	if f.ResidualPs() > 1 {
		t.Fatalf("residual %.3f ps on perfectly linear pairs", f.ResidualPs())
	}
	// Now jitter each pair by ±J: residual EWMA should land near J.
	const J = 5000.0 // ps
	sign := 1.0
	for i := 20; i < 60; i++ {
		c := 1000 * float64(i+1)
		f.deliver(UTCBroadcast{Counter: c, UTC: c*ratio + sign*J})
		sign = -sign
	}
	if r := f.ResidualPs(); r < J/2 || r > 4*J {
		t.Fatalf("residual %.0f ps, want around the injected %.0f ps jitter", r, J)
	}
}
