// Package xo models quartz crystal oscillators and the tick counters they
// drive. The IEEE 802.3 standard requires the PHY clock frequency to be
// within ±100 ppm of nominal (156.25 MHz for 10 GbE); real oscillators also
// wander slowly with temperature. Both effects are modelled here.
//
// Clocks are evaluated lazily: a clock is a piecewise-linear function of
// simulated time described by (baseCount, baseTickFs, periodFs). There is
// no per-tick event — at 156.25 MHz that would be ~10^10 events per
// simulated minute. Counter jumps (DTP's lc = max(lc, c+d)) and frequency
// wander re-base the linear segment; all arithmetic is exact in integer
// femtoseconds.
package xo

import (
	"fmt"

	"github.com/dtplab/dtp/internal/sim"
)

// Standard 10 GbE PHY clock parameters (IEEE 802.3ae).
const (
	// nominalPeriod10GFs is the 156.25 MHz tick period in femtoseconds
	// (6.4 ns).
	nominalPeriod10GFs = 6_400_000
	// defaultMaxPPM is the oscillator frequency tolerance required by the
	// standard: ±100 parts per million.
	defaultMaxPPM = 100.0
)

// Params configures an oscillator.
type Params struct {
	// NominalPeriodFs is the nominal tick period in femtoseconds.
	NominalPeriodFs int64
	// OffsetPPM is the oscillator's constant frequency offset from
	// nominal, in parts per million. Positive means the oscillator runs
	// fast (shorter period).
	OffsetPPM float64
	// MaxPPM bounds |OffsetPPM| including wander. Zero means use the
	// 802.3 limit of ±100 ppm.
	MaxPPM float64
	// WanderInterval is how often the frequency takes a random-walk step
	// (temperature drift). Zero disables wander.
	WanderInterval sim.Time
	// WanderStepPPB is the standard deviation of each random-walk step in
	// parts per billion.
	WanderStepPPB float64
}

// Default10G returns oscillator parameters for a 10 GbE PHY with the given
// constant ppm offset and no wander.
func Default10G(offsetPPM float64) Params {
	return Params{NominalPeriodFs: nominalPeriod10GFs, OffsetPPM: offsetPPM}
}

// Clock is a free-running oscillator driving a monotonically increasing
// tick counter. It is the physical substrate under both DTP counters and
// PTP hardware clocks.
type Clock struct {
	sch *sim.Scheduler
	rng *sim.RNG

	nominalFs int64
	maxPPM    float64
	ppm       float64
	periodFs  int64 // current true period, fs

	baseCount  uint64 // counter value established at baseTickFs
	baseTickFs int64  // absolute fs timestamp of the tick that set baseCount

	wanderStepPPB float64
	wanderEvery   sim.Time

	// onRate, when set (OnRateChange), runs just before every change of
	// the rate.
	onRate func()
}

// NewClock creates a clock. The counter starts at zero with its first tick
// at the current simulated time.
func NewClock(sch *sim.Scheduler, rng *sim.RNG, p Params) *Clock {
	if p.NominalPeriodFs <= 0 {
		panic("xo: nominal period must be positive")
	}
	maxPPM := p.MaxPPM
	if maxPPM == 0 {
		maxPPM = defaultMaxPPM
	}
	if p.OffsetPPM > maxPPM || p.OffsetPPM < -maxPPM {
		panic(fmt.Sprintf("xo: offset %.3f ppm outside ±%.1f ppm", p.OffsetPPM, maxPPM))
	}
	c := &Clock{
		sch:           sch,
		rng:           rng,
		nominalFs:     p.NominalPeriodFs,
		maxPPM:        maxPPM,
		wanderStepPPB: p.WanderStepPPB,
		wanderEvery:   p.WanderInterval,
		baseTickFs:    sch.Now().Fs(),
	}
	c.setPPM(p.OffsetPPM)
	if c.wanderEvery > 0 && c.wanderStepPPB > 0 {
		sch.After(c.wanderEvery, c.wanderStep)
	}
	return c
}

// setPPM updates the true period from a ppm offset. Positive ppm = faster
// clock = shorter period.
func (c *Clock) setPPM(ppm float64) {
	c.ppm = ppm
	// period = nominal / (1 + ppm*1e-6), computed in integer fs with
	// rounding. For |ppm| <= 100 the linear approximation
	// nominal*(1 - ppm*1e-6) is off by < 0.01 ppb^2 — negligible against
	// the fs quantization — but use the exact form anyway.
	num := float64(c.nominalFs)
	c.periodFs = int64(num/(1+ppm*1e-6) + 0.5)
	if c.periodFs <= 0 {
		panic("xo: period underflow")
	}
}

func (c *Clock) wanderStep() {
	c.rateChanging()
	// Re-base first so the frequency change does not retroactively alter
	// history.
	now := c.sch.Now()
	c.rebase(now)
	ppm := c.ppm + c.rng.Normal(0, c.wanderStepPPB/1000)
	if ppm > c.maxPPM {
		ppm = c.maxPPM
	}
	if ppm < -c.maxPPM {
		ppm = -c.maxPPM
	}
	c.setPPM(ppm)
	c.sch.After(c.wanderEvery, c.wanderStep)
}

// rebase re-anchors the linear segment at the most recent tick at or
// before t, preserving the counter function exactly.
func (c *Clock) rebase(t sim.Time) {
	n := c.CounterAt(t)
	c.baseTickFs = c.tickFs(n)
	c.baseCount = n
}

// tickFs returns the absolute fs instant of tick n (n >= baseCount).
func (c *Clock) tickFs(n uint64) int64 {
	return c.baseTickFs + int64(n-c.baseCount)*c.periodFs
}

// CounterAt returns the counter value at simulated time t: the number of
// ticks whose instants are <= t.
func (c *Clock) CounterAt(t sim.Time) uint64 {
	elapsed := t.Fs() - c.baseTickFs
	if elapsed < 0 {
		panic(beforeBase(t))
	}
	return c.baseCount + uint64(elapsed/c.periodFs)
}

// TimeOfCount returns the earliest simulated time (ps resolution, rounded
// up) at which CounterAt reports at least n. Used to schedule "in k ticks"
// events without per-tick events.
func (c *Clock) TimeOfCount(n uint64) sim.Time {
	if n < c.baseCount {
		panic(countBeforeBase{})
	}
	fs := c.tickFs(n)
	return sim.Time((fs + 999) / 1000)
}

// setCounterAt jumps the counter so that CounterAt(t) == n. Tick phase and
// frequency are unchanged: only the labels move, exactly as a DTP local
// counter adjustment works in hardware. n must not move the counter
// backwards.
func (c *Clock) setCounterAt(n uint64, t sim.Time) {
	cur := c.CounterAt(t)
	if n < cur {
		panic(jumpBackwards{cur, n})
	}
	c.baseTickFs = c.tickFs(cur)
	c.baseCount = n
}

// beforeBase, countBeforeBase and jumpBackwards are the tick
// arithmetic's panic values for a modelling bug. Being plain values
// rather than formatted strings keeps CounterAt and TimeOfCount within
// the inliner's budget; the text is built only if the panic is printed.
type (
	beforeBase      sim.Time
	countBeforeBase struct{}
	jumpBackwards   struct{ cur, n uint64 }
)

func (e beforeBase) Error() string {
	return fmt.Sprintf("xo: CounterAt(%v) precedes base tick", sim.Time(e))
}
func (countBeforeBase) Error() string { return "xo: TimeOfCount before base count" }
func (e jumpBackwards) Error() string {
	return fmt.Sprintf("xo: counter jump backwards (%d -> %d)", e.cur, e.n)
}

// AdjustPPM changes the oscillator's frequency offset at the current
// simulated time (used by disciplined clocks, e.g. a PTP servo steering a
// PHC). The counter function up to now is preserved. The adjustment is
// clamped to ±maxPPM only if hardware-realistic clamping is enabled via
// params; servo models clamp themselves.
func (c *Clock) AdjustPPM(ppm float64) {
	c.rateChanging()
	c.rebase(c.sch.Now())
	c.setPPM(ppm)
}

// OnRateChange installs fn to run just before every rate change (a
// wander step or AdjustPPM), while PeriodFs still reads the old rate:
// the hook for work scheduled ahead at the current rate.
func (c *Clock) OnRateChange(fn func()) { c.onRate = fn }

func (c *Clock) rateChanging() {
	if c.onRate != nil {
		c.onRate()
	}
}

// PPM returns the current frequency offset in parts per million.
func (c *Clock) PPM() float64 { return c.ppm }

// MaxPPM returns the bound on |PPM| this clock was built with (the
// 802.3 ±100 ppm limit unless overridden). Fault injectors clamp their
// frequency steps to this so a "chaotic" oscillator stays a standards-
// compliant one.
func (c *Clock) MaxPPM() float64 { return c.maxPPM }

// PeriodFs returns the current true tick period in femtoseconds.
func (c *Clock) PeriodFs() int64 { return c.periodFs }

// NominalPeriodFs returns the nominal tick period in femtoseconds.
func (c *Clock) NominalPeriodFs() int64 { return c.nominalFs }

// Counter returns the counter value at the scheduler's current time.
func (c *Clock) Counter() uint64 { return c.CounterAt(c.sch.Now()) }

// Scheduler returns the scheduler driving this clock.
func (c *Clock) Scheduler() *sim.Scheduler { return c.sch }
