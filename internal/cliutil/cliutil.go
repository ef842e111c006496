// Package cliutil is the shared flag surface of the dtp command-line
// tools. All four commands (dtpsim, dtpd, dtptrace, dtpexp) register
// their common flags through one definition — same names, same help
// text, same parsing and validation — so the CLIs cannot drift apart
// flag by flag as they grow.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/dtplab/dtp"
)

// Set selects which shared flags a command registers.
type Set uint

const (
	// FlagTopo is -topo, the topology spec.
	FlagTopo Set = 1 << iota
	// FlagSeed is -seed, the deterministic run seed.
	FlagSeed
	// FlagDuration is -duration, the simulated run length.
	FlagDuration
	// FlagJobs is -jobs, the campaign worker-pool width.
	FlagJobs
	// FlagMetricsOut is -metrics-out, the Prometheus dump path.
	FlagMetricsOut
	// FlagTraceOut is -trace-out, the JSONL protocol trace path.
	FlagTraceOut
	// FlagChaos is -chaos, the fault-injection scenario path.
	FlagChaos
	// FlagHardened is -hardened, the Byzantine-hardened protocol mode.
	FlagHardened
	// FlagDiscipline is -discipline, the daemon software-clock
	// estimator spec.
	FlagDiscipline
)

// Flags holds the shared flag values. Initialize fields before Register
// to set per-command defaults (e.g. dtpd runs 2 s where dtpsim runs
// 500 ms); zero values select the package-wide defaults below.
type Flags struct {
	Topo       string
	Seed       uint64
	Duration   time.Duration
	Jobs       int
	MetricsOut string
	TraceOut   string
	Chaos      string
	Hardened   bool
	Discipline string

	registered Set
}

// Register installs the selected flags on fs with the shared names and
// help strings, using the current field values as defaults — set fields
// before Register for per-command defaults (dtpsim runs 500 ms where
// dtpd runs 2 s; dtpexp's zero duration means "per-experiment
// default"). Seed alone falls back to 1, the convention every command
// shares.
func (f *Flags) Register(fs *flag.FlagSet, which Set) {
	f.registered |= which
	if which&FlagTopo != 0 {
		fs.StringVar(&f.Topo, "topo", f.Topo,
			"topology: pair | tree | star:N | chain:N | fattree:K")
	}
	if which&FlagSeed != 0 {
		if f.Seed == 0 {
			f.Seed = 1
		}
		fs.Uint64Var(&f.Seed, "seed", f.Seed, "deterministic run seed")
	}
	if which&FlagDuration != 0 {
		fs.DurationVar(&f.Duration, "duration", f.Duration, "simulated run length")
	}
	if which&FlagJobs != 0 {
		fs.IntVar(&f.Jobs, "jobs", f.Jobs,
			"parallel workers for multi-run campaigns (0 = GOMAXPROCS)")
	}
	if which&FlagMetricsOut != 0 {
		fs.StringVar(&f.MetricsOut, "metrics-out", f.MetricsOut,
			"write final metrics (Prometheus text format) to this file")
	}
	if which&FlagTraceOut != 0 {
		fs.StringVar(&f.TraceOut, "trace-out", f.TraceOut,
			"write the protocol event trace (JSONL) to this file")
	}
	if which&FlagChaos != 0 {
		fs.StringVar(&f.Chaos, "chaos", f.Chaos,
			"fault-injection scenario JSON (see internal/chaos)")
	}
	if which&FlagHardened != 0 {
		fs.BoolVar(&f.Hardened, "hardened", f.Hardened,
			"enable Byzantine-hardened mode: bounded-jump admission, quarantine, quorum combiner")
	}
	if which&FlagDiscipline != 0 {
		fs.StringVar(&f.Discipline, "discipline", f.Discipline,
			"daemon software-clock estimator: ma | pll | theilsen | lad")
	}
}

// Validate cross-checks the registered flag values: a non-empty
// topology spec must parse, durations must be non-negative, the worker
// count non-negative, and a chaos scenario (when named) must load.
// Call after fs.Parse. (Empty topo and zero duration are legal at this
// layer — dtptrace treats no -topo as "skip jump-chain analysis" and
// dtpexp treats zero -duration as "per-experiment default"; commands
// that require them enforce that at use.)
func (f *Flags) Validate() error {
	if f.registered&FlagTopo != 0 && f.Topo != "" {
		if _, err := dtp.ParseTopology(f.Topo); err != nil {
			return err
		}
	}
	if f.registered&FlagDuration != 0 && f.Duration < 0 {
		return fmt.Errorf("cliutil: -duration must be non-negative, got %v", f.Duration)
	}
	if f.registered&FlagJobs != 0 && f.Jobs < 0 {
		return fmt.Errorf("cliutil: -jobs must be >= 0 (0 = GOMAXPROCS), got %d", f.Jobs)
	}
	if f.registered&FlagChaos != 0 && f.Chaos != "" {
		if _, err := dtp.LoadChaosScenario(f.Chaos); err != nil {
			return err
		}
	}
	if f.registered&FlagDiscipline != 0 && f.Discipline != "" {
		if _, err := dtp.ParseDiscipline(f.Discipline); err != nil {
			return err
		}
	}
	return nil
}

// Topology parses the -topo spec.
func (f *Flags) Topology() (dtp.Topology, error) {
	return dtp.ParseTopology(f.Topo)
}

// ParseDiscipline parses the -discipline spec; the zero config (the
// paper's moving average) is returned when the flag is unset.
func (f *Flags) ParseDiscipline() (dtp.DisciplineConfig, error) {
	if f.Discipline == "" {
		return dtp.DisciplineConfig{}, nil
	}
	return dtp.ParseDiscipline(f.Discipline)
}

// Fatal prints "cmd: err" to stderr and exits with the given code —
// the uniform error exit every command uses (1 = run failure, 2 = bad
// invocation).
func Fatal(cmd string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(code)
}

// WriteFile creates path, streams fill into it, and closes it,
// returning the first error encountered.
func WriteFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
