package daemon

import (
	"math"
	"sort"
	"testing"

	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
)

// TestGoldenDisciplineConvergence runs every discipline against the
// same DefaultConfig PCIe noise on the synced pair and holds each to a
// golden bound: time to enter (and stay inside) its steady-state band,
// and steady-state p99. The ma row is Figure 7a's raw daemon; the robust
// disciplines must reach the paper's *smoothed* band (±4 ticks) on the
// raw serve path, because their anchors are regression-filtered rather
// than single raw samples.
//
// The four daemons share one pair: each reads the same device with its
// own seed-23 stream, and reading a counter does not move it, so every
// row sees exactly what it would see alone.
func TestGoldenDisciplineConvergence(t *testing.T) {
	cases := []struct {
		kind         string
		bandTicks    float64 // steady-state band the estimate must enter and hold
		convergeByMs float64 // deadline to enter the band for good
		p99Ticks     float64 // steady-state p99 (second half of the run)
	}{
		{"ma", 16, 1000, 16},
		{"pll", 8, 1000, 14},
		{"theilsen", 4, 1000, 7},
		{"lad", 4, 1000, 6},
	}
	type pt struct {
		ms  float64
		off float64
	}
	sch, n := syncedPair(t, 21)
	start := sch.Now()
	seqs := make([][]pt, len(cases))
	daemons := make([]*Daemon, len(cases))
	for i, c := range cases {
		d, err := Attach(n.Devices[0], Options{
			Config:     DefaultConfig().Compressed(), // calibrate every 10 ms
			Discipline: discipline.Config{Kind: c.kind},
		}, 23, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.OnSample = func(off float64) {
			seqs[i] = append(seqs[i], pt{float64(sch.Now()-start) / float64(sim.Millisecond), off})
		}
		daemons[i] = d
	}
	sch.RunFor(5 * sim.Second) // ~500 calibrations
	for i, c := range cases {
		seq, d := seqs[i], daemons[i]
		t.Run(c.kind, func(t *testing.T) {
			if len(seq) < 300 {
				t.Fatalf("only %d calibrations", len(seq))
			}
			// Convergence: acquisition time — when the rolling median
			// (window 7, spike-immune: PCIe contention spikes recur at
			// ~0.5% forever) first enters the band and holds it for 50
			// consecutive samples. Later excursions are the steady-state
			// story and are held to the p99 golden instead.
			const medWin, holdFor = 7, 50
			med := make([]float64, 0, len(seq))
			win := make([]float64, 0, medWin)
			for i := medWin - 1; i < len(seq); i++ {
				win = win[:0]
				for _, q := range seq[i-medWin+1 : i+1] {
					win = append(win, q.off)
				}
				sort.Float64s(win)
				med = append(med, win[medWin/2])
			}
			converge := math.Inf(1)
			run := 0
			for i, m := range med {
				if math.Abs(m) > c.bandTicks {
					run = 0
					continue
				}
				if run++; run == holdFor {
					converge = seq[i+medWin-1-holdFor+1].ms
					break
				}
			}
			s := stats.NewSummary(0)
			for _, p := range seq[len(seq)/2:] {
				s.Add(p.off)
			}
			p99 := s.QuantileAbs(0.99)
			t.Logf("%s: converge-to-±%.0f %.0f ms, steady p99 %.2f ticks, dropped %d",
				c.kind, c.bandTicks, converge, p99, d.DroppedSamples())
			if converge > c.convergeByMs {
				t.Fatalf("entered ±%.0f-tick band for good at %.0f ms, golden deadline %.0f ms",
					c.bandTicks, converge, c.convergeByMs)
			}
			if p99 > c.p99Ticks {
				t.Fatalf("steady-state p99 %.2f ticks > golden %.2f", p99, c.p99Ticks)
			}
			if c.kind != "ma" {
				return
			}
			// Figure 7a over the whole run, warm-up included: the raw
			// offset is "usually no more than 16 clock ticks" (p99 within
			// 16, spikes allowed beyond), and the PCIe noise is there.
			t.Run("raw", func(t *testing.T) {
				raw := stats.NewSummary(0)
				for _, p := range seq {
					raw.Add(p.off)
				}
				if p := raw.QuantileAbs(0.99); p > 16 {
					t.Fatalf("daemon raw offset p99 = %.1f ticks, paper says usually <= 16", p)
				}
				if raw.MaxAbs() < 0.5 {
					t.Fatalf("raw offsets implausibly tight (%.3f); PCIe noise missing", raw.MaxAbs())
				}
			})
		})
	}
}

// TestDaemonDisciplineResetOnRestart is the crash/rejoin regression
// test: a device restart resets the hardware counter to zero, so every
// calibration anchor the discipline holds belongs to a dead counter
// domain. The daemon must detect the restart (via Device.Restarts) and
// reset the discipline instead of feeding the EWMA a wildly negative
// instantaneous ratio measured across the reset.
func TestDaemonDisciplineResetOnRestart(t *testing.T) {
	sch, n := syncedPair(t, 25)
	dev := n.Devices[0]
	d, err := Attach(dev, Options{Config: DefaultConfig().Compressed()}, 27, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := sch.Now()
	var restartMs float64
	type pt struct {
		ms  float64
		off float64
	}
	var after []pt
	d.OnSample = func(off float64) {
		ms := float64(sch.Now()-start) / float64(sim.Millisecond)
		if restartMs > 0 && ms > restartMs {
			after = append(after, pt{ms, off})
		}
	}
	sch.RunFor(1500 * sim.Millisecond)
	if !d.Calibrated() {
		t.Fatal("daemon never calibrated")
	}
	dev.Crash()
	sch.RunFor(20 * sim.Millisecond)
	restartMs = float64(sch.Now()-start) / float64(sim.Millisecond)
	dev.Restart()
	sch.RunFor(3 * sim.Second)

	if got := d.DisciplineResets(); got != 1 {
		t.Fatalf("discipline resets = %d, want exactly 1", got)
	}
	if len(after) < 200 {
		t.Fatalf("only %d post-restart calibrations", len(after))
	}
	// The ratio must not be poisoned: it has to agree with the counter's
	// actual advance rate, measured over a final window. (Not with the
	// nominal rate — the rejoin's re-measured link delay can leave the
	// pair in a mutual-pull regime where both counters legitimately
	// ratchet a few hundred ppm fast; the discipline's job is to track
	// whatever the hardware counter really does.)
	t0, c0 := sch.Now(), dev.GlobalCounter()
	sch.RunFor(1 * sim.Second)
	measured := float64(dev.GlobalCounter()-c0) / float64(sch.Now()-t0)
	if ppm := math.Abs(d.Ratio()/measured-1) * 1e6; ppm > 150 {
		t.Fatalf("post-restart ratio off the measured counter rate by %.0f ppm — discipline state poisoned", ppm)
	}
	// And the serve path recovers to the paper band: ignore the rejoin
	// transient (JOIN pulls the counter back up), then require Figure 7a
	// precision again.
	s := stats.NewSummary(0)
	for _, p := range after[len(after)/2:] {
		s.Add(p.off)
	}
	p99 := s.QuantileAbs(0.99)
	if p99 > 16 {
		t.Fatalf("post-restart steady p99 = %.1f ticks, want <= 16", p99)
	}
	t.Logf("resets=%d post-restart samples=%d steady p99=%.2f", d.DisciplineResets(), len(after), p99)
}

// TestAttachRejectsBadDiscipline: the option-struct constructor
// surfaces configuration errors instead of panicking.
func TestAttachRejectsBadDiscipline(t *testing.T) {
	_, n := syncedPair(t, 29)
	if _, err := Attach(n.Devices[0], Options{
		Discipline: discipline.Config{Kind: "kalman"},
	}, 31, nil, nil); err == nil {
		t.Fatal("Attach accepted an unknown discipline kind")
	}
}
