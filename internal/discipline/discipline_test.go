package discipline

import (
	"math"
	"strings"
	"testing"
)

// Synthetic stream parameters mirroring the daemon's environment: one
// counter tick is 6.4 ns, so the nominal ratio is 1.5625e-4 units per
// TSC picosecond; calibrations arrive every 10 ms; the latch window
// half-range of a ~450 ns PCIe read is 45 000 ps (~7 units).
const (
	testNominal = 1.5625e-4
	testDT      = 1e10 // ps between calibrations
	testLatchPs = 45000
)

// triWave is a deterministic stand-in for latch noise: a ±1 triangle
// wave with period 8, scaled by amp.
func triWave(i int, amp float64) float64 {
	phase := i % 8
	table := [8]float64{0, 0.5, 1, 0.5, 0, -0.5, -1, -0.5}
	return amp * table[phase]
}

// stream produces n samples along a line of the given true ratio with
// jit(i) counter units of measurement noise.
func stream(n int, ratio float64, jit func(i int) float64) []Sample {
	out := make([]Sample, n)
	const tsc0, dtp0 = 5e12, 7e11
	for i := 0; i < n; i++ {
		tsc := tsc0 + float64(i)*testDT
		out[i] = Sample{
			DTP:        dtp0 + ratio*(tsc-tsc0) + jit(i),
			TSC:        tsc,
			LatchErrPs: testLatchPs,
		}
	}
	return out
}

// noisy adds a ±20-unit contention spike every 13th sample on top of a
// ±3-unit triangle wave — the Figure 7a shape, made deterministic.
func noisy(i int) float64 {
	j := triWave(i, 3)
	if i%13 == 12 {
		if (i/13)%2 == 0 {
			j += 20
		} else {
			j -= 20
		}
	}
	return j
}

// noisyStream pairs noisy with the latch-window bound the daemon would
// report: a contention spike lengthens the measured read, so the
// per-sample worst-case latch error widens with it (that widening is
// what keeps the ma self-report honest on spike calibrations).
func noisyStream(n int, ratio float64) []Sample {
	out := stream(n, ratio, noisy)
	for i := range out {
		if i%13 == 12 {
			out[i].LatchErrPs = 200000 // ~31 units: covers the 20-unit spike
		}
	}
	return out
}

func mustNew(t *testing.T, cfg Config) Discipline {
	t.Helper()
	d, err := cfg.New(testNominal)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return d
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"ma", Config{Kind: "ma"}},
		{"ma:gain=0.3", Config{Kind: "ma", Gain: 0.3}},
		{"pll:kp=0.5,ki=0.2", Config{Kind: "pll", KP: 0.5, KI: 0.2}},
		{"theilsen:window=32", Config{Kind: "theilsen", Window: 32}},
		{"lad:window=24,dropk=3", Config{Kind: "lad", Window: 24, DropK: 3}},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		if c.spec != "" {
			round, err := Parse(got.String())
			if err != nil || round != got {
				t.Fatalf("String round trip of %q: got %+v (%v)", c.spec, round, err)
			}
		}
	}
	for _, bad := range []string{"kalman", "ma:gain", "ma:gain=x", "lad:window=1", "pll:kp=7", "ma:foo=1",
		"ma:gain=NaN", "pll:kp=nan", "pll:ki=-Inf", "lad:dropk=+Inf", "lad:dropk=NaN",
		"pll:gain=0.3", "theilsen:dropk=3,kp=1.5", "ma:dropk=2", "lad:ki=0.1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error, got nil", bad)
		}
	}
	// An option the kind does not read used to be accepted and dropped;
	// the error names the options the kind does read.
	if _, err := Parse("pll:gain=0.3"); err == nil || !strings.Contains(err.Error(), "kp, ki") {
		t.Errorf("Parse(pll:gain=0.3): %v, want an error listing kp, ki", err)
	}
}

func TestKindsConstructible(t *testing.T) {
	for _, kind := range Kinds() {
		d := mustNew(t, Config{Kind: kind})
		if d.Name() != kind {
			t.Errorf("Config{Kind:%q}.New().Name() = %q", kind, d.Name())
		}
		if d.Model().Valid {
			t.Errorf("%s: model valid before any sample", kind)
		}
		if got := d.Model().Ratio; got != testNominal {
			t.Errorf("%s: initial ratio %g, want nominal %g", kind, got, testNominal)
		}
		if !math.IsInf(d.Model().ErrorAt(1e12), 1) {
			t.Errorf("%s: ErrorAt before first sample should be +Inf", kind)
		}
	}
	if _, err := (Config{Kind: "nope"}).New(testNominal); err == nil {
		t.Error("unknown kind: want error")
	}
}

// TestConvergence feeds every discipline the same deterministic noisy
// ramp (true frequency 60 ppm off nominal) and checks the steady-state
// estimate and ratio against per-discipline golden bounds. The robust
// regressions must beat the paper's EWMA on the spike samples.
func TestConvergence(t *testing.T) {
	const truthPPM = 60
	ratio := testNominal * (1 + truthPPM*1e-6)
	samples := noisyStream(260, ratio)
	cases := []struct {
		cfg         Config
		maxAbsOff   float64 // steady-state |estimate-truth| at sample times, units
		maxRatioPPM float64
	}{
		{Config{Kind: "ma"}, 25, 10},
		{Config{Kind: "pll"}, 18, 5},
		{Config{Kind: "theilsen"}, 6, 5},
		{Config{Kind: "lad"}, 6, 5},
	}
	for _, c := range cases {
		t.Run(c.cfg.Kind, func(t *testing.T) {
			d := mustNew(t, c.cfg)
			var worst float64
			for i, s := range samples {
				m := d.Feed(s)
				if i < 100 {
					continue
				}
				truth := s.DTP - noisy(i)
				if off := math.Abs(m.EstimateAt(s.TSC) - truth); off > worst {
					worst = off
				}
				if ppm := math.Abs(m.Ratio/ratio-1) * 1e6; ppm > c.maxRatioPPM {
					t.Fatalf("sample %d: ratio error %.2f ppm > %.2f", i, ppm, c.maxRatioPPM)
				}
			}
			if worst > c.maxAbsOff {
				t.Fatalf("steady-state worst offset %.2f units > %.2f", worst, c.maxAbsOff)
			}
			t.Logf("%s: worst steady-state offset %.2f units", c.cfg.Kind, worst)
		})
	}
}

// TestSelfReportedErrorCovers checks the ε-budget contract: the model's
// self-reported error bound must cover the actual estimate error at
// nearly every post-warmup sample. This is what timesvc relies on when
// it folds EstimateErrorUnits into published interval half-widths.
func TestSelfReportedErrorCovers(t *testing.T) {
	ratio := testNominal * (1 - 40e-6)
	samples := noisyStream(260, ratio)
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			d := mustNew(t, Config{Kind: kind})
			covered, total := 0, 0
			for i, s := range samples {
				m := d.Feed(s)
				if i < 30 {
					continue
				}
				truth := s.DTP - noisy(i)
				// Check halfway into the next calibration interval,
				// where frequency slack matters too.
				tsc := s.TSC + testDT/2
				actual := math.Abs(m.EstimateAt(tsc) - (truth + ratio*(testDT/2)))
				total++
				if actual <= m.ErrorAt(tsc) {
					covered++
				}
			}
			if frac := float64(covered) / float64(total); frac < 0.95 {
				t.Fatalf("self-reported error covers only %.1f%% of samples", frac*100)
			}
		})
	}
}

func TestResetStartsFreshAcquisition(t *testing.T) {
	ratio := testNominal * (1 + 30e-6)
	samples := stream(120, ratio, func(i int) float64 { return triWave(i, 2) })
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			d := mustNew(t, Config{Kind: kind})
			for _, s := range samples[:60] {
				d.Feed(s)
			}
			d.Reset()
			if d.Model().Valid {
				t.Fatal("model still valid after Reset")
			}
			if got := d.Model().Ratio; got != testNominal {
				t.Fatalf("ratio after Reset = %g, want nominal %g", got, testNominal)
			}
			var m Model
			for _, s := range samples[60:] {
				m = d.Feed(s)
			}
			truth := samples[119].DTP - triWave(119, 2)
			if off := math.Abs(m.EstimateAt(samples[119].TSC) - truth); off > 12 {
				t.Fatalf("post-reset reacquisition offset %.2f units", off)
			}
		})
	}
}

func TestNonAdvancingTSCSampleRejected(t *testing.T) {
	base := stream(10, testNominal, func(int) float64 { return 0 })
	for _, kind := range []string{"pll", "theilsen", "lad"} {
		t.Run(kind, func(t *testing.T) {
			d := mustNew(t, Config{Kind: kind})
			for _, s := range base {
				d.Feed(s)
			}
			before := d.Model()
			dup := base[9]
			dup.DTP += 1e6 // wildly wrong, must be ignored
			m := d.Feed(dup)
			if !m.Dropped {
				t.Fatal("duplicate-TSC sample not marked dropped")
			}
			if d.Dropped() == 0 {
				t.Fatal("Dropped() not incremented")
			}
			if m.Ratio != before.Ratio || m.DTP != before.DTP {
				t.Fatal("model moved on a non-advancing sample")
			}
		})
	}
	// The moving average has no monotonicity guard by design (bit-compat
	// with the daemon's historical path) but must stay finite.
	d := mustNew(t, Config{Kind: "ma"})
	for _, s := range base {
		d.Feed(s)
	}
	m := d.Feed(base[9])
	if math.IsNaN(m.Ratio) || math.IsInf(m.Ratio, 0) {
		t.Fatal("ma ratio not finite after duplicate sample")
	}
}

// FuzzParseDiscipline: Parse never panics; an accepted spec round-trips
// through String, and the discipline it builds stays finite over ten
// noisy calibrations. The corpus holds every kind, each option, and the
// NaN and Inf gains that once passed Validate and served NaN-wide
// intervals, and options a kind does not read, once silently dropped.
func FuzzParseDiscipline(f *testing.F) {
	for _, spec := range []string{"", "ma", "ma:gain=0.3", "pll:kp=0.5,ki=0.2", "theilsen:window=32",
		"lad:window=24,dropk=3", "ma:gain=NaN", "pll:ki=Inf", "lad:dropk=+Inf", "lad:window=1",
		"pll:gain=0.3", "theilsen:dropk=3,kp=1.5"} {
		f.Add(spec)
	}
	samples := stream(10, testNominal, func(i int) float64 { return triWave(i, 3) })
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		// String names the default kind, so compare with defaults filled.
		if back, err := Parse(c.String()); err != nil || back.WithDefaults() != c.WithDefaults() {
			t.Fatalf("Parse(%q) = %+v; its String %q parses to %+v (%v)", spec, c, c.String(), back, err)
		}
		d, err := c.New(testNominal)
		if err != nil {
			t.Fatalf("accepted spec %q does not build: %v", spec, err)
		}
		var m Model
		for _, s := range samples {
			m = d.Feed(s)
		}
		for _, v := range []float64{m.DTP, m.TSC, m.Ratio, m.ErrUnits, m.SlackPPM} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: model not finite after ten samples: %+v", spec, m)
			}
		}
	})
}
