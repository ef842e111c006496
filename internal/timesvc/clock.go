package timesvc

import (
	"errors"
	"time"

	"github.com/dtplab/dtp/internal/swclock"
)

// Timebase is the raw monotonic clock readers interpolate from —
// the host's TSC in simulation, the wall monotonic clock in the load
// generator. Readings are picoseconds in an arbitrary but fixed origin;
// the Snapshot's AnchorRaw lives in the same domain.
type Timebase interface {
	// Raw returns the current raw reading in picoseconds.
	Raw() int64
}

// tscTimebase reads a simulated host's TSC software clock. It is only
// usable on the simulation goroutine (the clock extrapolates from the
// scheduler's current instant).
type tscTimebase struct{ C *swclock.Clock }

// Raw returns the TSC reading in picoseconds.
func (t tscTimebase) Raw() int64 { return int64(t.C.Now()) }

// WallTimebase reads the host's monotonic clock, offset by Base. It is
// safe for concurrent use from any goroutine: time.Since uses the
// monotonic reading captured in Start and never takes a lock.
type WallTimebase struct {
	// Start anchors the timebase; readings are Base + elapsed since it.
	Start time.Time
	// Base shifts the origin, e.g. to continue a simulation's raw
	// domain at wall rate after the simulated part ends.
	Base int64
}

// NewWallTimebase returns a wall timebase starting at base now.
func NewWallTimebase(base int64) WallTimebase {
	return WallTimebase{Start: time.Now(), Base: base}
}

// Raw returns base + wall picoseconds elapsed since Start.
func (t WallTimebase) Raw() int64 {
	return t.Base + time.Since(t.Start).Nanoseconds()*1000
}

// Interval is a TrueTime-style uncertainty interval: the service
// guarantees true UTC lies within [Earliest, Latest] (both ps) as long
// as the underlying audit bound holds.
type Interval struct {
	EarliestPs float64
	LatestPs   float64
}

// WidthPs returns the full interval width.
func (iv Interval) WidthPs() float64 { return iv.LatestPs - iv.EarliestPs }

// HalfWidthPs returns ε, the uncertainty half-width.
func (iv Interval) HalfWidthPs() float64 { return (iv.LatestPs - iv.EarliestPs) / 2 }

// Contains reports whether the instant t (ps) lies inside the interval.
func (iv Interval) Contains(t float64) bool {
	return iv.EarliestPs <= t && t <= iv.LatestPs
}

// Read-path errors. Both are preallocated: the fast path must not
// allocate even when failing.
var (
	// errNoSnapshot means nothing has been published yet (the service
	// has not completed its first calibration).
	errNoSnapshot = errors.New("timesvc: no snapshot published yet")
	// ErrStale means the current snapshot is older than its MaxAgePs:
	// the service stopped calibrating (degraded daemon, lost audit
	// bound) and the clock fails closed rather than serve an interval
	// whose error bound nobody stands behind.
	ErrStale = errors.New("timesvc: snapshot is stale")
)

// Clock is the reader half of the time service: a snapshot Store plus
// the raw timebase snapshots are anchored in. All methods are lock-free
// and allocation-free; with a concurrency-safe Timebase (WallTimebase)
// a Clock may be shared by any number of goroutines.
type Clock struct {
	store *Store
	tb    Timebase
}

// NewClock wraps a store and a timebase.
func NewClock(store *Store, tb Timebase) *Clock {
	return &Clock{store: store, tb: tb}
}

// At evaluates the current snapshot at the raw timebase reading r:
// the UTC estimate and its uncertainty interval. Exposed separately
// from Now/NowInterval so callers who already hold a raw reading (load
// generators checking the invariant against ground truth derived from
// the very same reading) can evaluate both from one instant.
func (c *Clock) At(raw int64) (utcPs float64, iv Interval, err error) {
	return c.store.cur.Load().at(raw)
}

// Now returns the current UTC estimate in picoseconds.
func (c *Clock) Now() (float64, error) {
	utc, _, err := c.At(c.tb.Raw())
	return utc, err
}

// NowInterval returns the TrueTime-style uncertainty interval at the
// current instant.
func (c *Clock) NowInterval() (Interval, error) {
	_, iv, err := c.At(c.tb.Raw())
	return iv, err
}

// after reports whether true UTC is certainly after t (ps): even the
// interval's earliest edge has passed it.
func (c *Clock) after(t float64) (bool, error) {
	iv, err := c.NowInterval()
	if err != nil {
		return false, err
	}
	return iv.EarliestPs > t, nil
}

// before reports whether true UTC is certainly before t (ps): even the
// interval's latest edge has not reached it.
func (c *Clock) before(t float64) (bool, error) {
	iv, err := c.NowInterval()
	if err != nil {
		return false, err
	}
	return iv.LatestPs < t, nil
}

// waitUntil returns how long the caller must wait until true UTC is
// certainly past t (ps) — the TrueTime commit-wait primitive: a
// transaction stamped t may acknowledge only after waitUntil(t)
// elapses. Returns 0 when the interval is already entirely past t.
// The estimate converts the UTC shortfall back to timebase units
// through the snapshot ratio; the half-width growth during the wait
// itself is second-order (DriftPPM × wait) and deliberately ignored —
// callers polling after(t) after the wait get the exact answer.
func (c *Clock) waitUntil(t float64) (time.Duration, error) {
	sn := c.store.cur.Load()
	_, iv, err := sn.at(c.tb.Raw())
	if err != nil {
		return 0, err
	}
	if iv.EarliestPs > t {
		return 0, nil
	}
	ratio := sn.Ratio
	if ratio <= 0 {
		ratio = 1
	}
	waitNs := (t - iv.EarliestPs) / ratio / 1000
	return time.Duration(waitNs), nil
}
