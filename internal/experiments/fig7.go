package experiments

import (
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// DaemonFigResult is the output of the Figure 7 experiments: per-server
// offset_sw traces (daemon estimate minus hardware counter, in ticks).
type DaemonFigResult struct {
	// Raw holds the unsmoothed per-server offset samples.
	Raw map[string][]float64
	// Smoothed holds the window-10 moving average (Figure 7b).
	Smoothed map[string][]float64
	// RawP95 / SmoothedP95 are the worst per-server 95th-percentile
	// magnitudes.
	RawP95, SmoothedP95 float64
	// RawMax is the worst raw spike magnitude.
	RawMax float64
}

// Fig7 reproduces Figure 7: DTP daemons on the paper tree's leaves
// reading their NIC counters over PCIe. Paper: raw offsets usually
// within ±16 ticks with occasional spikes (7a); within ±4 ticks after a
// 10-sample moving average (7b).
func Fig7(o Options) (*DaemonFigResult, error) {
	o = o.withDefaults(5 * sim.Second)
	sch, n, err := settled(o.Seed, topo.PaperTree(), core.DefaultConfig(), 10*sim.Millisecond)
	if err != nil {
		return nil, err
	}
	res := &DaemonFigResult{Raw: map[string][]float64{}, Smoothed: map[string][]float64{}}
	// The figure plots s4, s5, s7, s8, s9, s11.
	for i, name := range []string{"s4", "s5", "s7", "s8", "s9", "s11"} {
		dev, err := n.DeviceByName(name)
		if err != nil {
			return nil, err
		}
		d, err := daemon.Attach(dev, daemon.Options{
			Config:     daemon.DefaultConfig().Compressed(),
			Discipline: o.Discipline,
		}, o.Seed+20+uint64(i), nil, nil)
		if err != nil {
			return nil, err
		}
		name := name
		d.OnSample = func(off float64) { res.Raw[name] = append(res.Raw[name], off) }
	}
	sch.RunFor(o.Duration)
	for name, raw := range res.Raw {
		sm := stats.MovingAverage(raw, 10)
		res.Smoothed[name] = sm
		rawSum := stats.NewSummary(0)
		for _, v := range raw {
			rawSum.Add(v)
			res.RawMax = absMax(res.RawMax, v)
		}
		smSum := stats.NewSummary(0)
		for _, v := range sm[min(10, len(sm)):] {
			smSum.Add(v)
		}
		if p := rawSum.QuantileAbs(0.95); p > res.RawP95 {
			res.RawP95 = p
		}
		if p := smSum.QuantileAbs(0.95); p > res.SmoothedP95 {
			res.SmoothedP95 = p
		}
	}
	return res, nil
}
