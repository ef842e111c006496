package dtp

import "github.com/dtplab/dtp/internal/discipline"

// DisciplineConfig selects and parameterizes the software-clock
// estimator a daemon disciplines its TSC-derived clock with (see
// internal/discipline): the paper's moving average ("ma", the default),
// an Ntimed-style PLL ("pll"), Theil-Sen median-of-slopes regression
// ("theilsen"), or chrony-style least-absolute-deviations with outlier
// sample dropping ("lad"). The zero value means "ma" with defaults.
type DisciplineConfig = discipline.Config

// ParseDiscipline parses the CLI discipline syntax shared by dtpsim,
// dtpd and dtpexp: "kind" or "kind:opt=val,opt=val", e.g. "ma",
// "ma:gain=0.3", "pll:kp=0.7,ki=0.3", "theilsen:window=16",
// "lad:window=24,dropk=2". An empty spec selects the default ("ma").
func ParseDiscipline(spec string) (DisciplineConfig, error) {
	return discipline.Parse(spec)
}

// WithDiscipline sets the default estimator for every daemon the System
// attaches (System.Daemon, System.TimePlane); per-daemon options
// override it.
func WithDiscipline(dc DisciplineConfig) Option {
	return func(c *config) { c.discipline = dc }
}
