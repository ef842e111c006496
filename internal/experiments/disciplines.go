package experiments

import (
	"math"
	"sort"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/par"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// DisciplineRow is one cell of the discipline-comparison table: one
// estimator under one noise scenario.
type DisciplineRow struct {
	// Kind is the discipline spec ("ma", "pll", "theilsen", "lad").
	Kind string
	// Scenario names the noise regime (see disciplineScenarios).
	Scenario string
	// ConvergeMs is when the rolling-median offset first entered the
	// ±16-tick raw band and stayed for 10 consecutive calibrations,
	// in simulated milliseconds; -1 if it never did.
	ConvergeMs float64
	// P99Ticks is the worst of |Q99|,|Q01| of the raw per-calibration
	// offset over the second half of the run.
	P99Ticks float64
	// WorstTicks is the worst |offset| over the second half.
	WorstTicks float64
	// Dropped is how many calibration samples the discipline rejected
	// as outliers.
	Dropped uint64
	// ErrTicks is the discipline's final self-reported error estimate
	// (the value that feeds the timesvc ε budget); -1 while unbounded.
	ErrTicks float64
}

// disciplineScenario perturbs the daemon hardware model and/or the
// network's oscillators to stress a specific estimator weakness.
type disciplineScenario struct {
	name string
	// daemon mutates the (already compressed) daemon config.
	daemon func(daemon.Config) daemon.Config
	// network mutates the core config.
	network func(core.Config) core.Config
}

func disciplineScenarios() []disciplineScenario {
	return []disciplineScenario{
		{
			name:    "clean",
			daemon:  func(c daemon.Config) daemon.Config { return c },
			network: func(c core.Config) core.Config { return c },
		},
		{
			// Doubled lognormal spread and 4x the spike probability:
			// the Figure 7a outliers become routine, which separates
			// the outlier-robust estimators (Theil-Sen, LAD) from the
			// gain-based ones.
			name: "pcie-jitter",
			daemon: func(c daemon.Config) daemon.Config {
				c.PCIeSigma *= 2
				c.PCIeSpikeP *= 4
				return c
			},
			network: func(c core.Config) core.Config { return c },
		},
		{
			// Fast oscillator temperature wander: the NIC counter's
			// rate keeps moving, which separates the trackers (EWMA,
			// PLL) from the long-memory regressors.
			name:   "osc-wander",
			daemon: func(c daemon.Config) daemon.Config { return c },
			network: func(c core.Config) core.Config {
				c.WanderInterval = 10 * sim.Millisecond
				c.WanderStepPPB = 300
				return c
			},
		},
	}
}

// DisciplineSweep runs every discipline kind under every noise scenario
// (same topology, same seed, one daemon on s4) and tabulates
// convergence and steady-state precision. It is the experiment behind
// `dtpexp -sweep disciplines` and the DESIGN.md comparison table.
func DisciplineSweep(o Options) ([]DisciplineRow, error) {
	o = o.withDefaults(3 * sim.Second)
	kinds := discipline.Kinds()
	scenarios := disciplineScenarios()
	type combo struct {
		kind string
		sc   disciplineScenario
	}
	var combos []combo
	for _, sc := range scenarios {
		for _, k := range kinds {
			combos = append(combos, combo{kind: k, sc: sc})
		}
	}
	return par.Map(o.Jobs, len(combos), func(i int) (DisciplineRow, error) {
		c := combos[i]
		dc, err := discipline.Parse(c.kind)
		if err != nil {
			return DisciplineRow{}, err
		}
		sch, n, err := settled(o.Seed, topo.PaperTree(), c.sc.network(core.DefaultConfig()), 10*sim.Millisecond)
		if err != nil {
			return DisciplineRow{}, err
		}
		dev, err := n.DeviceByName("s4")
		if err != nil {
			return DisciplineRow{}, err
		}
		d, err := daemon.Attach(dev, daemon.Options{
			Config:     c.sc.daemon(daemon.DefaultConfig().Compressed(daemonCompression)),
			Discipline: dc,
		}, o.Seed+20)
		if err != nil {
			return DisciplineRow{}, err
		}
		var offs []float64
		var when []sim.Time
		start := sch.Now()
		d.OnSample = func(off float64) {
			offs = append(offs, off)
			when = append(when, sch.Now()-start)
		}
		d.Start()
		sch.RunFor(o.Duration)
		row := DisciplineRow{Kind: c.kind, Scenario: c.sc.name, ConvergeMs: -1}
		row.Dropped = d.DroppedSamples()
		row.ErrTicks = d.EstimateErrorUnits()
		if math.IsInf(row.ErrTicks, 0) {
			row.ErrTicks = -1
		}
		// Steady-state precision over the second half.
		half := stats.NewSummary(0)
		for _, v := range offs[len(offs)/2:] {
			half.Add(v)
			row.WorstTicks = absMax(row.WorstTicks, v)
		}
		row.P99Ticks = half.QuantileAbs(0.99)
		// Convergence: the window-7 rolling median (spike-immune) must
		// enter the paper's ±16-tick raw band and hold for 10
		// consecutive calibrations.
		const medWin, band, hold = 7, 16.0, 10
		win := make([]float64, 0, medWin)
		run := 0
		for i := medWin - 1; i < len(offs); i++ {
			win = win[:0]
			win = append(win, offs[i-medWin+1:i+1]...)
			sort.Float64s(win)
			if math.Abs(win[medWin/2]) > band {
				run = 0
				continue
			}
			if run++; run == hold {
				row.ConvergeMs = when[i-hold+1].Seconds() * 1e3
				break
			}
		}
		return row, nil
	})
}
