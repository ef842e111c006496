package experiments

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

// Each test in this file owns one dtpexp figure, table or sweep. short
// is the window of the Figure 6a and 6b tests.
func short() Options {
	return Options{Seed: 42, Duration: 300 * sim.Millisecond}
}

func TestFig6aBounded(t *testing.T) {
	res, err := Fig6a(short())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsTicks > 4 {
		t.Fatalf("Fig6a: offset samples reached %.1f ticks, paper bound 4", res.MaxAbsTicks)
	}
	if res.MaxTrueTicks > 4 {
		t.Fatalf("Fig6a: true adjacent offset %d ticks", res.MaxTrueTicks)
	}
	if len(res.PairSummaries) < 8 {
		t.Fatalf("only %d pairs sampled", len(res.PairSummaries))
	}
	for name, s := range res.PairSummaries {
		if s.N() == 0 {
			t.Fatalf("pair %s has no samples", name)
		}
	}
	for _, sr := range res.PairSeries {
		if sr.Len() == 0 {
			t.Fatal("empty series")
		}
	}
}

func TestFig6bBounded(t *testing.T) {
	res, err := Fig6b(short())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsTicks > 4 || res.MaxTrueTicks > 4 {
		t.Fatalf("Fig6b exceeded bound: samples %.1f true %d", res.MaxAbsTicks, res.MaxTrueTicks)
	}
}

func TestFig6cDistributionShape(t *testing.T) {
	res, err := Fig6c(Options{Seed: 7, Duration: 500 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6c plots s3's pairs: distributions concentrated within
	// [-4, 4] with total mass 1.
	for _, name := range []string{"s3-s9", "s3-s10", "s3-s11", "s3-s0"} {
		h := res.Hist[name]
		if h == nil || h.Total() == 0 {
			t.Fatalf("no distribution for %s", name)
		}
		lo, hi := h.Range()
		if lo < -4 || hi > 4 {
			t.Fatalf("%s distribution spans [%d, %d]", name, lo, hi)
		}
		_, probs := h.PDF()
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s PDF mass %f", name, sum)
		}
	}
}

// TestPTPLoadOrdering owns Figures 6d–f and the transparent-clock
// ablation (dtpexp -fig 6d|6e|6f, -sweep tc). AblationTCModes' realistic
// row is Figure 6f's run by construction, so one set of runs decides the
// load ordering and the ablation. A 200 ms window after the 2 s idle
// convergence decides every assertion below with at least 3× margin on
// seeds 1, 2 and 5: idle 111–167 ns, medium 10.8–18.1 µs, heavy 62–80 µs,
// perfect TC 120–168 ns, no TC within 1 % of realistic, strict priority
// 1.47–1.57 µs.
func TestPTPLoadOrdering(t *testing.T) {
	o := Options{Seed: 5, Duration: 200 * sim.Millisecond}
	idle, err := Fig6d(o)
	if err != nil {
		t.Fatal(err)
	}
	med, err := Fig6e(o)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := AblationTCModes(o)
	if err != nil {
		t.Fatal(err)
	}
	heavy := tc.RealisticWorstNs
	t.Logf("idle %.0f ns, medium %.0f ns, heavy %.0f ns; perfect TC %.0f, no TC %.0f, priority %.0f ns",
		idle.WorstNs, med.WorstNs, heavy, tc.PerfectWorstNs, tc.OffWorstNs, tc.PriorityWorstNs)
	// Figure 6d: idle PTP holds hundreds of nanoseconds.
	t.Run("idle", func(t *testing.T) {
		if idle.WorstNs > 1000 || idle.WorstNs < 5 || len(idle.ClientSummaries) != 8 {
			t.Fatalf("idle PTP %.1f ns over %d clients, want hundreds over 8", idle.WorstNs, len(idle.ClientSummaries))
		}
	})
	// Figures 6e and 6f: idle « medium « heavy.
	t.Run("load", func(t *testing.T) {
		if !(idle.WorstNs < med.WorstNs && med.WorstNs < heavy) {
			t.Fatal("load ordering violated")
		}
		if med.WorstNs < 2_000 || heavy < 20_000 {
			t.Fatal("degradation magnitudes below paper's regime")
		}
	})
	// With textbook transparent clocks the queue wait is corrected and
	// heavy load behaves near-idle: the degradation comes from the
	// realistic TC model, not from a baked-in load→error constant. A TC
	// that corrects nothing of the queue wait is no worse than one that
	// corrects only the pipeline.
	t.Run("tc", func(t *testing.T) {
		if tc.PerfectWorstNs*5 > heavy {
			t.Fatalf("perfect TC (%.0f ns) should be far better than realistic (%.0f ns)", tc.PerfectWorstNs, heavy)
		}
		if math.Abs(tc.OffWorstNs-heavy) > heavy/10 {
			t.Fatalf("no TC %.0f ns, realistic %.0f ns: should agree within 10 %%", tc.OffWorstNs, heavy)
		}
		// Strict priority for event frames is two orders better than
		// FIFO and still several times worse than idle: transmission is
		// not preemptive.
		if !(2*idle.WorstNs < tc.PriorityWorstNs && tc.PriorityWorstNs < heavy/10) {
			t.Fatalf("priority %.0f ns, want between 2× idle (%.0f) and realistic/10 (%.0f)",
				tc.PriorityWorstNs, 2*idle.WorstNs, heavy/10)
		}
	})
}

// TestTable1Ordering owns Table 1 (dtpexp -table 1): DTP ns, PTP
// sub-µs, GPS ns, NTP µs. A 200 ms window decides it on seeds 1, 2 and 5:
// DTP 12.8–25.6 ns, PTP 111–168 ns, GPS 178–192 ns, NTP 12.4–23.0 µs.
func TestTable1Ordering(t *testing.T) {
	rows, err := Table1(Options{Seed: 1, Duration: 200 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ntpNs, ptpNs, gpsNs, dtpNs := rows[0].MeasuredWorstNs, rows[1].MeasuredWorstNs,
		rows[2].MeasuredWorstNs, rows[3].MeasuredWorstNs
	if !(dtpNs <= 4*6.4 && dtpNs < ptpNs && ptpNs < 1000 && 1000 < ntpNs && dtpNs < gpsNs && gpsNs < 1000) {
		t.Fatalf("DTP %.1f, PTP %.1f, GPS %.1f, NTP %.1f ns: want DTP <= 25.6 < PTP < 1000 < NTP and DTP < GPS < 1000",
			dtpNs, ptpNs, gpsNs, ntpNs)
	}
}

// TestFig7DaemonPrecision owns Figure 7 (dtpexp -fig 7a|7b). A 1 s
// window decides it on seeds 1, 2 and 11: raw p95 6.9–7.7 ticks,
// smoothed p95 2.4–3.5. At 500 ms the smoothed p95 reaches 3.91, too
// close to 4 to decide anything.
func TestFig7DaemonPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
	res, err := Fig7(Options{Seed: 11, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.RawP95 > 16 {
		t.Fatalf("raw daemon offset p95 %.1f ticks, paper: usually <= 16", res.RawP95)
	}
	if res.SmoothedP95 > 4 {
		t.Fatalf("smoothed daemon offset p95 %.1f ticks, paper: usually <= 4", res.SmoothedP95)
	}
	if len(res.Raw) != 6 {
		t.Fatalf("%d servers sampled", len(res.Raw))
	}
}

func TestTable2SpeedBounds(t *testing.T) {
	rows, err := Table2(Options{Seed: 13, Duration: 200 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredBoundNs > r.BoundNs {
			t.Fatalf("%v: measured %.2f ns > bound %.2f ns", r.Profile.Speed, r.MeasuredBoundNs, r.BoundNs)
		}
		if r.MeasuredBoundNs == 0 {
			t.Fatalf("%v: no measurement", r.Profile.Speed)
		}
	}
}

func TestBoundSweepScaling(t *testing.T) {
	rows, err := BoundSweep(Options{Seed: 17, Duration: 200 * sim.Millisecond}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.SettledPairs {
			t.Fatalf("chain(%d) did not settle", r.Hops)
		}
		if !r.WithinBound {
			t.Fatalf("chain(%d): %d ticks > bound %d", r.Hops, r.MaxTicks, r.BoundTicks)
		}
	}
	// The six-hop fat-tree bound from the abstract: 153.6 ns.
	last := rows[len(rows)-1]
	if last.BoundNs < 153.59 || last.BoundNs > 153.61 {
		t.Fatalf("6-hop bound %.3f ns, want 153.6", last.BoundNs)
	}
}

func TestAblationAlphaShowsRatchet(t *testing.T) {
	rows, err := AblationAlpha(Options{Seed: 19, Duration: 500 * sim.Millisecond}, []int64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// α=0 overestimates the OWD and must ratchet the global counter
	// beyond the fastest oscillator; α=3 must not.
	if rows[0].RatchetPPM < 0.5 {
		t.Fatalf("alpha=0 ratchet %.3f ppm; expected clearly positive", rows[0].RatchetPPM)
	}
	if rows[1].RatchetPPM > 0.2 {
		t.Fatalf("alpha=3 ratchet %.3f ppm; should be ~0", rows[1].RatchetPPM)
	}
}

func TestAblationBeaconInterval(t *testing.T) {
	rows, err := AblationBeaconInterval(Options{Seed: 23, Duration: 500 * sim.Millisecond},
		[]uint64{200, 4000, 60000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MaxOffsetTicks > 4 || rows[1].MaxOffsetTicks > 4 {
		t.Fatalf("intervals within the 5000-tick analysis limit exceeded 4 ticks: %+v", rows[:2])
	}
	if rows[2].MaxOffsetTicks <= 4 {
		t.Fatalf("interval 60000 stayed at %d ticks; drift should exceed the bound", rows[2].MaxOffsetTicks)
	}
}

func TestSyncEFreezesOffsets(t *testing.T) {
	res, err := AblationSyncE(Options{Seed: 3, Duration: 300 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// §8: frequency synchronization removes the residual oscillation;
	// offsets become static while free-running clocks wobble.
	if res.SyntonizedSpreadTicks >= res.FreeRunSpreadTicks {
		t.Fatalf("syntonized spread %d not tighter than free-run %d",
			res.SyntonizedSpreadTicks, res.FreeRunSpreadTicks)
	}
	if res.SyntonizedSpreadTicks > 1 {
		t.Fatalf("syntonized offsets still moving: spread %d ticks", res.SyntonizedSpreadTicks)
	}
	if res.FreeRunSpreadTicks == 0 {
		t.Fatal("free-run spread zero — skew not simulated?")
	}
}

func TestBCCascadeDegrades(t *testing.T) {
	rows, err := AblationBCCascade(Options{Seed: 3, Duration: 2 * sim.Second}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// §2.4.2: boundary-clock errors cascade. Each level must add error;
	// three levels should clearly exceed a direct client.
	for i := 1; i < len(rows); i++ {
		if rows[i].P99Ns < rows[0].P99Ns {
			t.Fatalf("level %d p99 %.0f ns better than direct %.0f ns",
				rows[i].Levels, rows[i].P99Ns, rows[0].P99Ns)
		}
	}
	if rows[3].P99Ns < 2*rows[0].P99Ns {
		t.Fatalf("3-level cascade p99 %.0f ns not clearly worse than direct %.0f ns",
			rows[3].P99Ns, rows[0].P99Ns)
	}

	// The p99 is stats.Summary's nearest-rank quantile. On a 150-sample
	// window 0.99·(n−1) = 147.51: a private flooring rank (the bug PR 2
	// fixed in Summary, kept alive here until PR 19) reads one sample low.
	o := Options{Seed: 3, Duration: 1500 * sim.Millisecond}
	short, err := AblationBCCascade(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := bcCascadeLeaf(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.N() != 150 {
		t.Fatalf("%d samples in a 1.5 s window, want 150", leaf.N())
	}
	if short[0].P99Ns != leaf.Quantile(0.99) || short[0].WorstNs != leaf.Max() {
		t.Fatalf("row reports p99 %.1f worst %.1f ns, stats.Summary %.1f / %.1f",
			short[0].P99Ns, short[0].WorstNs, leaf.Quantile(0.99), leaf.Max())
	}
}

func TestMixedSpeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
	rows, err := MixedSpeedSweep(Options{Seed: 37, Duration: 120 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MaxUnits > r.BoundUnits {
			t.Fatalf("core %v: %d units > bound %d", r.Core, r.MaxUnits, r.BoundUnits)
		}
		if r.MaxUnits == 0 {
			t.Fatalf("core %v: no offset movement — suspicious", r.Core)
		}
	}
}

func TestIncrementalDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
	// 100 ms decides it on seeds 1 and 31: intra-rack 25.6 / 19.2 ns,
	// inter-rack 104.9 / 83.7 ns, merged <= 25.6 ns. Most of the run is
	// the experiment's fixed 2 s PTP warm-up, which the claim needs.
	res, err := IncrementalDeployment(Options{Seed: 31, Duration: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("intra %.1f ns, inter %.1f ns, merged %.1f ns",
		res.IntraRackWorstNs, res.InterRackWorstNs, res.MergedWorstNs)
	// §5.3: within a DTP rack servers are ns-synchronized; across racks
	// precision is whatever PTP gives the masters; DTP-enabling the
	// aggregation layer restores ns everywhere.
	if res.IntraRackWorstNs > 2*25.6 {
		t.Fatalf("intra-rack %.1f ns; expected DTP-class", res.IntraRackWorstNs)
	}
	if res.InterRackWorstNs < 2*res.IntraRackWorstNs {
		t.Fatalf("inter-rack %.1f ns not clearly worse than intra %.1f ns",
			res.InterRackWorstNs, res.IntraRackWorstNs)
	}
	if res.MergedWorstNs > 4*4*6.4 { // 4TD with diameter 4
		t.Fatalf("merged network %.1f ns exceeds 4TD", res.MergedWorstNs)
	}
}

func TestAblationMasterMode(t *testing.T) {
	res, err := AblationMasterMode(Options{Seed: 3, Duration: 400 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The defining behavioural difference: max mode runs at the fastest
	// oscillator in the network (+100 ppm), master mode at the root's
	// (-100 ppm).
	if res.MaxModeRatePPM < 95 {
		t.Fatalf("max mode rate %.1f ppm; should track the +100 ppm clock", res.MaxModeRatePPM)
	}
	if res.MasterModeRatePPM > -95 {
		t.Fatalf("master mode rate %.1f ppm; should track the -100 ppm root", res.MasterModeRatePPM)
	}
	// Both modes keep adjacent offsets tightly bounded.
	if res.MaxModeOffsetTicks > 4 || res.MasterModeOffsetTicks > 6 {
		t.Fatalf("offsets: max mode %d, master mode %d", res.MaxModeOffsetTicks, res.MasterModeOffsetTicks)
	}
}

func TestAblationCDC(t *testing.T) {
	rows, err := AblationCDC(Options{Seed: 29, Duration: 300 * sim.Millisecond}, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// More FIFO stages -> more measurement slack; the offset envelope
	// must not shrink as the CDC deepens.
	if rows[2].MaxOffsetTicks < rows[0].MaxOffsetTicks {
		t.Fatalf("deeper CDC tightened offsets: %+v", rows)
	}
}
