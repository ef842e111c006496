package discipline

import (
	"math"
	"testing"
)

// TestLADFrequencyStepMassDrop reproduces the regime-change behavior:
// after a 500 ppm frequency step the incumbent L1 fit first drags the
// estimate away from truth (the old-regime majority out-votes the new
// samples, and the early new-regime arrivals get dropped as "outliers"),
// then — once the window slides far enough for the new regime to win —
// the fit flips and the old-regime survivors are dropped in a burst.
// Fully deterministic: no RNG anywhere.
func TestLADFrequencyStepMassDrop(t *testing.T) {
	const stepAt = 30
	r1 := testNominal
	r2 := testNominal * (1 + 500e-6)
	jit := func(i int) float64 { return triWave(i, 0.5) }

	// Piecewise-linear truth, continuous at the step.
	const tsc0, dtp0 = 5e12, 7e11
	tscAt := func(i int) float64 { return tsc0 + float64(i)*testDT }
	truthAt := func(i int) float64 {
		if i <= stepAt {
			return dtp0 + r1*(tscAt(i)-tsc0)
		}
		return dtp0 + r1*(tscAt(stepAt)-tsc0) + r2*(tscAt(i)-tscAt(stepAt))
	}

	d := newLAD(16, ladDropK, testNominal)
	var maxTransientOff, maxTailOff float64
	for i := 0; i < 80; i++ {
		m := d.Feed(Sample{DTP: truthAt(i) + jit(i), TSC: tscAt(i), LatchErrPs: testLatchPs})
		off := math.Abs(m.EstimateAt(tscAt(i)) - truthAt(i))
		switch {
		case i > stepAt && i <= stepAt+20:
			maxTransientOff = math.Max(maxTransientOff, off)
		case i >= 70:
			maxTailOff = math.Max(maxTailOff, off)
		}
	}
	if d.Dropped() < 4 {
		t.Fatalf("regime change dropped only %d samples, want a burst >= 4", d.Dropped())
	}
	if maxTransientOff < 3 {
		t.Fatalf("transient offset %.2f units — expected the old-regime fit to drag the estimate", maxTransientOff)
	}
	if maxTailOff > 2 {
		t.Fatalf("tail offset %.2f units — fit failed to reconverge on the new regime", maxTailOff)
	}
	t.Logf("dropped=%d transient=%.2f tail=%.2f", d.Dropped(), maxTransientOff, maxTailOff)
}

// tri64 is a ±1 triangle wave with period 64 — a deterministic
// stand-in for slow oscillator wander.
func tri64(i int) float64 {
	p := i % 64
	if p < 16 {
		return float64(p) / 16
	}
	if p < 48 {
		return 1 - float64(p-16)/16
	}
	return -1 + float64(p-48)/16
}

// TestLADAggressiveDroppingOscillates reproduces the phenomenon the
// scion-time LAD notes describe, deterministically: under slow
// oscillator wander an aggressive drop threshold keeps discarding the
// leading-edge samples — the ones carrying the news that the frequency
// is moving — so the fit lags the wander, the lag manufactures fresh
// "outliers", and the estimate oscillates with sustained sample
// dropping that never settles. The default threshold on the identical
// stream drops (almost) nothing and tracks the wander closely.
func TestLADAggressiveDroppingOscillates(t *testing.T) {
	const n = 200
	// Truth: frequency wanders ±0.6 ppm with period 64 samples; the
	// counter integrates it. Noise: a small ±0.4-unit triangle wave.
	const tsc0, dtp0 = 5e12, 7e11
	wanderPPM := 0.4
	truth := make([]float64, n)
	acc := dtp0
	for i := 0; i < n; i++ {
		truth[i] = acc
		acc += testNominal * (1 + wanderPPM*1e-6*tri64(i)) * testDT
	}
	run := func(dropK float64) (lateDrops uint64, maxOff float64, signChanges int) {
		d := newLAD(12, dropK, testNominal)
		var dropsAtTwoThirds uint64
		prevSign := 0
		for i := 0; i < n; i++ {
			tsc := tsc0 + float64(i)*testDT
			m := d.Feed(Sample{DTP: truth[i] + triWave(i, 0.4), TSC: tsc, LatchErrPs: testLatchPs})
			if i == 2*n/3 {
				dropsAtTwoThirds = d.Dropped()
			}
			if i < 60 {
				continue
			}
			off := m.EstimateAt(tsc) - truth[i]
			maxOff = math.Max(maxOff, math.Abs(off))
			sign := 0
			if off > 0.2 {
				sign = 1
			} else if off < -0.2 {
				sign = -1
			}
			if sign != 0 && prevSign != 0 && sign != prevSign {
				signChanges++
			}
			if sign != 0 {
				prevSign = sign
			}
		}
		return d.Dropped() - dropsAtTwoThirds, maxOff, signChanges
	}

	aggDrops, aggOff, aggSwings := run(1)
	defDrops, defOff, defSwings := run(ladDropK)
	t.Logf("aggressive: lateDrops=%d maxOff=%.2f swings=%d", aggDrops, aggOff, aggSwings)
	t.Logf("default:    lateDrops=%d maxOff=%.2f swings=%d", defDrops, defOff, defSwings)

	// Aggressive dropping never settles: legitimate samples are still
	// being discarded in the final third of the run.
	if aggDrops < 8 {
		t.Fatalf("aggressive DropK dropped only %d samples in the last third — expected sustained dropping", aggDrops)
	}
	if defDrops > 2 {
		t.Fatalf("default DropK dropped %d samples in the last third of a benign stream", defDrops)
	}
	// And the estimate oscillates with the wander instead of tracking
	// it: the error swings through zero repeatedly with an amplitude
	// well beyond the default's.
	if aggSwings < 3 {
		t.Fatalf("aggressive estimate error changed sign only %d times — expected oscillation", aggSwings)
	}
	if aggOff < 2*defOff {
		t.Fatalf("aggressive maxOff %.2f vs default %.2f — expected dropping to at least double the tracking error", aggOff, defOff)
	}
}

// TestLADDropsContentionSpikes: the motivating case — occasional large
// PCIe contention spikes are rejected outright, so the steady-state fit
// is tighter than the EWMA's on the identical stream.
func TestLADDropsContentionSpikes(t *testing.T) {
	ratio := testNominal * (1 + 25e-6)
	samples := noisyStream(200, ratio)
	lad := mustNew(t, Config{Kind: "lad"})
	ma := mustNew(t, Config{Kind: "ma"})
	var worstLAD, worstMA float64
	for i, s := range samples {
		ml := lad.Feed(s)
		mm := ma.Feed(s)
		if i < 100 {
			continue
		}
		truth := s.DTP - noisy(i)
		worstLAD = math.Max(worstLAD, math.Abs(ml.EstimateAt(s.TSC)-truth))
		worstMA = math.Max(worstMA, math.Abs(mm.EstimateAt(s.TSC)-truth))
	}
	if lad.Dropped() == 0 {
		t.Fatal("no spikes dropped")
	}
	if worstLAD >= worstMA/2 {
		t.Fatalf("lad worst %.2f, ma worst %.2f — expected spike rejection to at least halve the worst case", worstLAD, worstMA)
	}
	t.Logf("dropped=%d worstLAD=%.2f worstMA=%.2f", lad.Dropped(), worstLAD, worstMA)
}
