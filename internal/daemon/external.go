package daemon

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// External synchronization (§5.2): one server periodically broadcasts
// (DTP counter, UTC) pairs; every other daemon estimates the frequency
// ratio between the two timescales and can then serve UTC by
// interpolating its own DTP counter. Because all DTP counters advance
// at the same (max-coupled) rate, UTC derived this way is as tightly
// synchronized across servers as DTP itself, plus the broadcast
// estimation error.

// UTCSource provides the broadcaster's UTC readings; typically a GPS
// receiver or an NTP/PTP-disciplined clock, with its own error.
type UTCSource interface {
	// ReadUTC returns UTC in picoseconds at the current instant.
	ReadUTC() float64
}

// TrueUTC is a perfect UTC source (for tests and bounds).
type TrueUTC struct{ Sch *sim.Scheduler }

// ReadUTC returns true time.
func (s TrueUTC) ReadUTC() float64 { return float64(s.Sch.Now()) }

// UTCBroadcast is one (counter, UTC) pair as received by followers.
type UTCBroadcast struct {
	Counter float64 // broadcaster's DTP counter estimate at the reading
	UTC     float64 // ps
	// ErrUnits bounds the broadcaster's own estimate error at the
	// reading, in counter units — NTP's root-dispersion idea: each hop
	// ships its uncertainty so downstream consumers can compose an
	// honest end-to-end bound instead of guessing.
	ErrUnits float64
}

// UTCBroadcaster periodically publishes pairs to its followers.
// Delivery uses the DTP daemon's own counter estimate, so broadcaster-
// side software error is included, as it would be in deployment.
type UTCBroadcaster struct {
	d       *Daemon
	src     UTCSource
	subs    []*UTCFollower
	stopped bool
}

// broadcastInterval is the UTC broadcast cadence, the serving plane's
// publish cadence too.
const broadcastInterval = 10 * sim.Millisecond

// NewUTCBroadcaster wraps a daemon and a UTC source and starts
// broadcasting to the followers, in order, every broadcastInterval.
func NewUTCBroadcaster(d *Daemon, src UTCSource, followers []*UTCFollower) *UTCBroadcaster {
	b := &UTCBroadcaster{d: d, src: src, subs: followers}
	d.sch.After(broadcastInterval, b.tick)
	return b
}

// Stop halts broadcasting.
func (b *UTCBroadcaster) Stop() { b.stopped = true }

func (b *UTCBroadcaster) tick() {
	if b.stopped {
		return
	}
	pair := UTCBroadcast{
		Counter:  b.d.Estimate(),
		UTC:      b.src.ReadUTC(),
		ErrUnits: b.d.EstimateErrorUnits(),
	}
	for _, f := range b.subs {
		f.deliver(pair)
	}
	b.d.sch.After(broadcastInterval, b.tick)
}

// UTCFollower consumes broadcasts at one server and serves UTC queries
// by interpolating the local DTP counter.
type UTCFollower struct {
	d *Daemon

	have     bool
	last     UTCBroadcast
	ratio    float64 // UTC ps per DTP unit
	updates  uint64  // ratio measurements folded in so far
	recvd    uint64
	stale    uint64
	residual float64 // EWMA of |prediction residual| at broadcast arrivals, ps

	mStale *telemetry.Counter
}

// residualGain is the EWMA gain for the |prediction residual| tracker.
// Residuals measure the follower's extrapolation error over exactly one
// broadcast interval, which is what the serving plane's error bound
// needs to cover between anchors.
const residualGain = 0.2

// NewUTCFollower attaches a follower to a local daemon. reg (nil-safe)
// gets a counter of stale/duplicate broadcast pairs dropped without
// anchoring, labeled with the host name.
func NewUTCFollower(d *Daemon, reg *telemetry.Registry) *UTCFollower {
	return &UTCFollower{
		d:     d,
		ratio: float64(d.dev.Clock().NominalPeriodFs()) / 1e3,
		mStale: reg.Counter("dtp_utc_stale_pairs_total",
			"UTC broadcast pairs with a non-advancing counter, dropped without anchoring.",
			"host", d.dev.Name()),
	}
}

func (f *UTCFollower) deliver(pair UTCBroadcast) {
	f.recvd++
	if f.have && pair.Counter <= f.last.Counter {
		// A non-advancing counter means a duplicated or reordered pair
		// (or a broadcaster whose daemon glitched backwards). Anchoring
		// on it would poison the interpolation base and a ratio update
		// would divide by <= 0, so the pair is dropped entirely.
		f.stale++
		f.mStale.Inc()
		return
	}
	if f.have {
		// Residual: how far the previous anchor+ratio extrapolation is
		// from the fresh pair — the follower's realized one-interval
		// prediction error, fed to the serving plane's error bound. The
		// first residual initializes the EWMA outright (it reflects the
		// nominal-ratio cold-start error, so the bound starts wide and
		// decays as the estimate converges).
		pred := f.last.UTC + (pair.Counter-f.last.Counter)*f.ratio
		res := math.Abs(pair.UTC - pred)
		if f.updates == 0 {
			f.residual = res
		} else {
			f.residual += residualGain * (res - f.residual)
		}

		inst := (pair.UTC - f.last.UTC) / (pair.Counter - f.last.Counter)
		if f.updates == 0 {
			// Snap to the first measurement: EWMA-ing away from the
			// nominal period would leave tens of ppm of error for many
			// broadcast rounds (counters run up to +100 ppm fast under
			// max-coupling).
			f.ratio = inst
		} else {
			// Light smoothing: broadcast pairs carry daemon read noise.
			f.ratio += 0.2 * (inst - f.ratio)
		}
		f.updates++
	}
	f.last = pair
	f.have = true
}

// RatioUpdates returns how many ratio measurements have been folded in
// — a readiness signal for consumers that need a converged estimate
// (the serving plane's warmup gate).
func (f *UTCFollower) RatioUpdates() uint64 { return f.updates }

// Ratio returns the estimated UTC picoseconds per DTP counter unit.
func (f *UTCFollower) Ratio() float64 { return f.ratio }

// ResidualPs returns the smoothed |prediction residual| observed at
// broadcast arrivals, in picoseconds: the follower's realized
// extrapolation error over one broadcast interval. Zero until two
// broadcasts have arrived.
func (f *UTCFollower) ResidualPs() float64 { return f.residual }

// Anchor returns the last accepted broadcast pair and whether one has
// arrived yet.
func (f *UTCFollower) Anchor() (UTCBroadcast, bool) { return f.last, f.have }

// AnchorErrUnits returns the broadcaster-reported error bound carried by
// the current anchor pair, in counter units (+Inf before the first
// broadcast).
func (f *UTCFollower) AnchorErrUnits() float64 {
	if !f.have {
		return math.Inf(1)
	}
	return f.last.ErrUnits
}

// UTC returns this server's UTC estimate (ps) at the current instant,
// or an error before the first broadcast.
func (f *UTCFollower) UTC() (float64, error) {
	if !f.have {
		return 0, fmt.Errorf("daemon: no UTC broadcast received yet")
	}
	return f.last.UTC + (f.d.Estimate()-f.last.Counter)*f.ratio, nil
}

// UTCErrorPs returns ground truth |UTC estimate - true time|, +Inf
// before the first broadcast.
func (f *UTCFollower) UTCErrorPs() float64 {
	utc, err := f.UTC()
	if err != nil {
		return math.Inf(1)
	}
	return math.Abs(utc - float64(f.d.sch.Now()))
}
