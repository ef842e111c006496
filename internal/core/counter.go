package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/xo"
)

// unitCounter adapts an oscillator tick counter to DTP counter units:
// the counter advances by delta units per PCS tick and can be jumped
// forward (never backward) at any instant, exactly like the hardware
// local/global counter registers. All reads are derived lazily from the
// oscillator, so no per-tick events exist.
type unitCounter struct {
	clk   *xo.Clock
	delta uint64 // units per tick

	base    uint64 // counter value as of refTick
	refTick uint64 // oscillator tick at which base was established

	// capped marks an in-progress stall (§5.4): the linear trajectory
	// has been shifted down by the stalled amount and capVal floors the
	// visible value so it holds (monotone, losing ticks) until the
	// shifted trajectory catches back up.
	capped bool
	capVal uint64
}

func newUnitCounter(clk *xo.Clock, delta uint64) *unitCounter {
	return &unitCounter{clk: clk, delta: delta, refTick: clk.Counter()}
}

// at returns the counter value at simulated time t.
func (u *unitCounter) at(t simTime) uint64 {
	tick := u.clk.CounterAt(t)
	if tick < u.refTick {
		panic("core: counter queried before reference tick")
	}
	v := u.base + (tick-u.refTick)*u.delta
	if u.capped && v < u.capVal {
		return u.capVal // stalled: hold until the shifted trajectory catches up
	}
	return v
}

// setAt jumps the counter so that at(t) == v and lifts any stall.
// Jumping backward panics — DTP counters are monotone by construction
// (the max operation).
func (u *unitCounter) setAt(v uint64, t simTime) {
	cur := u.at(t)
	if v < cur {
		panic(fmt.Sprintf("core: counter jump backwards (%d -> %d)", cur, v))
	}
	u.capped = false
	u.refTick = u.clk.CounterAt(t)
	u.base = v
}

// stallBy holds the counter at its current value until `excess` units
// worth of ticks have been absorbed, then lets it resume at its own
// rate with the excess permanently removed (§5.4: a child faster than
// its master "should stall occasionally"). Monotone by construction.
func (u *unitCounter) stallBy(excess uint64, t simTime) {
	if excess == 0 {
		return
	}
	v := u.at(t)
	if excess > v {
		excess = v // cannot shift below counter zero
	}
	// Re-anchor the linear trajectory `excess` units below the current
	// value; floor the visible value at v until it catches up.
	u.refTick = u.clk.CounterAt(t)
	u.base = v - excess
	u.capped = true
	u.capVal = v
}

// resetAt models power loss: the counter restarts from zero at time t,
// forgetting its base and any stall state. This is the one legitimate
// backward movement — a crashed device rejoins through INIT and JOIN,
// not by remembering where it was.
func (u *unitCounter) resetAt(t simTime) {
	u.base = 0
	u.refTick = u.clk.CounterAt(t)
	u.capped = false
	u.capVal = 0
}

// reconstructNear returns the value congruent to lsb modulo 2^bits that
// is closest to local. This is how a receiver recovers a full counter
// from the 53 (or 52, with parity) transmitted least significant bits:
// its own counter supplies the high bits, adjusted across a wrap
// boundary if needed.
func reconstructNear(local, lsb uint64, bits uint) uint64 {
	mod := uint64(1) << bits
	mask := mod - 1
	base := local&^mask | lsb&mask
	// Of base-mod, base, base+mod choose the closest to local. Distances
	// use wrapping subtraction interpreted as signed, so the choice stays
	// correct when local sits near the 2^64 wrap and the candidates
	// straddle zero; valid because any real distance is < 2^bits ≪ 2^63.
	best := base
	bestDist := absSigned(base - local)
	if d := absSigned(base - mod - local); d < bestDist {
		best, bestDist = base-mod, d
	}
	if d := absSigned(base + mod - local); d < bestDist {
		best = base + mod
	}
	return best
}

// absSigned reinterprets a wrapping uint64 difference as signed and
// returns its magnitude.
func absSigned(d uint64) uint64 {
	if s := int64(d); s < 0 {
		return uint64(-s)
	}
	return d
}
