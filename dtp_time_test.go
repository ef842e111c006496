package dtp

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/timesvc"
	"github.com/dtplab/dtp/internal/topo"
)

func TestTimePlaneServesCoveredIntervals(t *testing.T) {
	reg := NewMetricsRegistry()
	sys := newSynced(t, PaperTree(), WithSeed(31), WithTelemetry(reg, NewTracer(0)))
	defer sys.Close()

	tp, err := sys.TimePlane(TimePlaneOptions{CalInterval: 10 * time.Millisecond, LoadQPS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Broadcaster() != "s4" {
		t.Fatalf("broadcaster = %q, want the first host s4", tp.Broadcaster())
	}
	if got := len(tp.Hosts()); got != 7 {
		t.Fatalf("%d served hosts, want 7 (s5-s11)", got)
	}

	sys.Run(time.Second)
	for _, h := range tp.Hosts() {
		svc, err := tp.Service(h)
		if err != nil {
			t.Fatal(err)
		}
		if svc.Publishes() < 50 {
			t.Fatalf("%s: only %d publishes over 1 s", h, svc.Publishes())
		}
		w, covered, err := tp.ReadCheck(h)
		if err != nil {
			t.Fatalf("%s: read failed: %v", h, err)
		}
		if !covered {
			t.Fatalf("%s: true time outside served interval (width %.0f ps)", h, w)
		}
		if ld := tp.Load(h); ld == nil || ld.Reads() < 100 {
			t.Fatalf("%s: in-sim load barely ran", h)
		}
	}

	// The HTTP surface serves the same clock as JSON.
	clk, err := tp.Clock(tp.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	hdl := timesvc.Handler(tp.Hosts()[0], clk)
	rec := httptest.NewRecorder()
	hdl.ServeHTTP(rec, httptest.NewRequest("GET", "/now", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /now = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		UTCPs      float64 `json:"utc_ps"`
		EarliestPs float64 `json:"earliest_ps"`
		LatestPs   float64 `json:"latest_ps"`
		Epoch      uint64  `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch == 0 || !(resp.EarliestPs < resp.UTCPs && resp.UTCPs < resp.LatestPs) {
		t.Fatalf("implausible /now response: %+v", resp)
	}

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTimePlaneRejectsBadConfigs: a plane needs a broadcaster and at
// least one served host.
func TestTimePlaneRejectsBadConfigs(t *testing.T) {
	g := Pair()
	g.Nodes[1].Kind = topo.Switch
	sys, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.TimePlane(TimePlaneOptions{}); err == nil {
		t.Fatal("a one-host topology accepted a time plane")
	}
}

// TestTimePlaneIntervalInvariantUnderChaos drives the serving plane
// through faults and asserts the TrueTime contract — earliest <= true
// time <= latest — at every sampled read outside the excused windows.
// Inside a window the plane may degrade, and a fail-closed read
// (stale/no snapshot) is always acceptable; what must never happen
// outside the windows is a *served* interval that excludes true time.
//
// The second row puts a Byzantine host under the plane with the fabric
// hardened. The liar inflates every counter it transmits; bounded-jump
// admission must reject those advances before adoption, so the honest
// hosts' served intervals never chase the lie, and the quarantine must
// pull the liar's link out of the audited fabric rather than leak bound
// violations. Adversarial faults earn no auditor excuse windows — the
// test's own excused() windows cover only the liar's local read
// degradation (its port is quarantined, so its snapshots go stale),
// never the audit record, which must stay spotless end to end.
//
// Window: assert from 150 ms, faults from 200 ms, end at 650 ms. On
// seeds 37 and 41, and on 1, 2, 4 and 5, the rows read at least 1 169
// and 2 289 checked reads, none uncovered, none failed closed, and no
// audit violation.
func TestTimePlaneIntervalInvariantUnderChaos(t *testing.T) {
	ms := func(n int) ChaosDuration { return ChaosD(time.Duration(n) * time.Millisecond) }
	for _, tc := range []struct {
		name     string
		seed     uint64
		hardened bool
		faults   []ChaosFault
	}{
		{name: "flap and frequency step", seed: 37, faults: []ChaosFault{
			{Kind: "flap", Link: []string{"s1", "s4"}, At: ms(200), Duration: ms(60), MeanUp: ms(5), MeanDown: ms(5)},
			{Kind: "freq_step", Device: "s8", At: ms(350), Duration: ms(60), PPMStep: 60},
		}},
		{name: "hardened liar", seed: 41, hardened: true, faults: []ChaosFault{
			{Kind: "liar", Device: "s8", At: ms(200), Duration: ms(50), JumpUnits: 5000,
				Cadence: ChaosD(500 * time.Microsecond)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the rows share nothing but the test binary
			opts := []Option{WithSeed(tc.seed), WithTelemetry(NewMetricsRegistry(), NewTracer(0))}
			if tc.hardened {
				opts = append(opts, WithHardened())
			}
			sys := newSynced(t, PaperTree(), opts...)
			defer sys.Close()
			aud := sys.Audit(AuditOptions{})
			tp, err := sys.TimePlane(TimePlaneOptions{CalInterval: 10 * time.Millisecond, Auditor: aud})
			if err != nil {
				t.Fatal(err)
			}
			sc := &ChaosScenario{Name: tc.name, SettleGrace: ms(2), Faults: tc.faults}
			if _, err := sys.Chaos(ChaosOptions{Scenario: sc, Auditor: aud}); err != nil {
				t.Fatal(err)
			}

			// A fault's effect on served intervals outlives its clearing:
			// the last snapshot published mid-degradation may serve for
			// MaxAge, and the follower's ratio/residual EWMAs need a few
			// broadcast rounds to re-learn the restored rate. Excuse each
			// fault window plus settle grace plus that serving tail.
			extraSettle := timesvc.MaxAge + sim.Time(40*sim.Millisecond)
			excused := func(at sim.Time) bool {
				for _, f := range sc.Faults {
					if at >= f.At.T && at <= f.At.T+f.Duration.T+sc.SettleGrace.T+extraSettle {
						return true
					}
				}
				return false
			}

			// Cold start is its own excused window: the service gates
			// publishing on follower warmup (WarmupPairs broadcasts) and its
			// bound then tightens as the EWMAs converge.
			if warm := 150*time.Millisecond - sys.Now(); warm > 0 {
				sys.Run(warm)
			}
			const step = sim.Millisecond
			checked, failedClosed := 0, 0
			for sys.Now() < 650*time.Millisecond {
				sys.Run(step.Std())
				now := sim.FromStd(sys.Now())
				if excused(now) {
					continue
				}
				for _, h := range tp.Hosts() {
					w, covered, err := tp.ReadCheck(h)
					if err != nil {
						// Fail-closed is honest at any time; count it so a
						// plane that never serves can't pass vacuously.
						failedClosed++
						continue
					}
					if !covered {
						t.Fatalf("t=%v %s: served interval (width %.0f ps) excludes true time outside excused windows",
							now.Std(), h, w)
					}
					checked++
				}
			}
			if checked < 1000 {
				t.Fatalf("only %d covered reads checked; sampling or serving broken", checked)
			}
			if failedClosed > checked/2 {
				t.Fatalf("%d of %d+ reads failed closed outside excused windows; plane is not recovering",
					failedClosed, checked+failedClosed)
			}

			if tc.hardened {
				// The defense must actually have engaged: inflated advances
				// rejected, the lying port quarantined at least once, and —
				// the point of the exercise — not a single bound violation
				// anywhere in the run.
				rejected, quarantined := sys.ByzantineStats()
				if rejected == 0 {
					t.Error("no counter advances rejected: the liar was never challenged")
				}
				if quarantined == 0 {
					t.Error("the lying port was never quarantined")
				}
				if v := aud.Violations(); v != 0 {
					t.Errorf("hardened fabric leaked %d bound violations under a liar", v)
				}
			}

			// After the last excused window every host — a reformed liar
			// included — serves covered intervals again.
			for _, h := range tp.Hosts() {
				w, covered, err := tp.ReadCheck(h)
				if err != nil {
					t.Fatalf("%s: read still failing after the faults cleared: %v", h, err)
				}
				if !covered {
					t.Fatalf("%s: interval (width %.0f ps) excludes truth after the faults cleared", h, w)
				}
			}
		})
	}
}

// TestTimePlaneReportAccessors covers what dtpd's report reads through
// the façade: every plane host has a daemon (with an offset histogram
// when instrumented), only followers have a UTC error, and only once a
// pair has arrived.
func TestTimePlaneReportAccessors(t *testing.T) {
	sys := newSynced(t, PaperTree(), WithSeed(5), WithTelemetry(NewMetricsRegistry(), nil))
	defer sys.Close()
	tp, err := sys.TimePlane(TimePlaneOptions{CalInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Daemon("s0"); err == nil {
		t.Error("Daemon(switch s0) succeeded")
	}
	if _, err := tp.UTCErrorPs("nope"); err == nil {
		t.Error("UTCErrorPs(unknown host) succeeded")
	}
	if _, err := tp.UTCErrorPs(tp.Hosts()[0]); err == nil {
		t.Error("UTCErrorPs succeeded before any broadcast")
	}

	sys.Run(100 * time.Millisecond)
	bd, err := tp.Daemon(tp.Broadcaster())
	if err != nil {
		t.Fatalf("the broadcaster has a daemon: %v", err)
	}
	if bd.OffsetHistogram().Count() == 0 {
		t.Error("broadcaster daemon calibrated for 100 ms but its histogram is empty")
	}
	if _, err := tp.UTCErrorPs(tp.Broadcaster()); err == nil {
		t.Error("UTCErrorPs(broadcaster) succeeded; it follows nobody")
	}
	for _, h := range tp.Hosts() {
		if _, err := tp.Daemon(h); err != nil {
			t.Errorf("Daemon(%s): %v", h, err)
		}
		// §5.2 puts UTC error in the tens of ns; 1 µs is the sanity ceiling.
		if e, err := tp.UTCErrorPs(h); err != nil || e < 0 || e > 1e6 {
			t.Errorf("UTCErrorPs(%s) = %.0f ps, %v", h, e, err)
		}
	}
}
