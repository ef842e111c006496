package dtp

import "github.com/dtplab/dtp/internal/discipline"

// DisciplineConfig selects the software-clock estimator a daemon
// disciplines its TSC-derived clock with (see internal/discipline): the
// paper's moving average ("ma", the default), an Ntimed-style PLL
// ("pll"), Theil-Sen median-of-slopes regression ("theilsen"), or
// chrony-style least-absolute-deviations with outlier sample dropping
// ("lad"). Each kind's parameters are fixed; the zero value means "ma".
type DisciplineConfig = discipline.Config

// ParseDiscipline parses the -discipline value shared by dtpsim, dtpd
// and dtpexp: a kind name, "ma", "pll", "theilsen" or "lad". An empty
// spec selects the default ("ma").
func ParseDiscipline(spec string) (DisciplineConfig, error) {
	return discipline.Parse(spec)
}

// WithDiscipline sets the default estimator for every daemon the System
// attaches (System.Daemon, System.TimePlane); per-daemon options
// override it.
func WithDiscipline(dc DisciplineConfig) Option {
	return func(c *config) { c.discipline = dc }
}
