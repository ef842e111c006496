// Package timesvc is the serving plane on top of the DTP daemon: it
// turns a host's daemon + UTC follower into a long-lived time service
// with a TrueTime-style API — Now() and NowInterval() returning
// [earliest, latest] UTC intervals whose half-width is backed by the
// live 4TD audit bound, the daemon's software-access margin, and the
// measured UTC-broadcast estimation error.
//
// The design splits reads from calibration the way production time
// services do (scion-time's timeservice/driver-shm split, Spanner's
// TrueTime): the calibration side periodically publishes an immutable
// Snapshot (epoch, UTC anchor, frequency ratio, error bound) by swapping
// one pointer in a Store, and readers interpolate UTC from the snapshot
// plus a raw timebase reading without ever touching the daemon — the
// read path is one atomic load and allocation-free, so millions of
// concurrent queries per second never contend with calibration or each
// other.
package timesvc

import (
	"math"
	"sync/atomic"
)

// Snapshot is one published clock state. Readers evaluate UTC at a raw
// timebase reading r as
//
//	UTC(r) = AnchorUTC + (r - AnchorRaw) · Ratio
//
// with uncertainty half-width
//
//	ε(r) = BoundPs + DriftPPM·1e-6·|r - AnchorRaw|
//
// so the interval [UTC-ε, UTC+ε] widens as the snapshot ages, exactly
// like TrueTime's ε between master syncs. MaxAgePs bounds how stale a
// snapshot may be served: past it, reads fail closed (ErrStale) rather
// than return an interval whose bound nobody stands behind.
type Snapshot struct {
	// Epoch increments with every publish; readers can detect
	// recalibration between two reads by comparing epochs.
	Epoch uint64
	// AnchorRaw is the raw timebase reading at the anchor instant, ps.
	AnchorRaw int64
	// AnchorUTC is the UTC estimate at the anchor instant, ps.
	AnchorUTC float64
	// Ratio is UTC picoseconds per raw-timebase picosecond.
	Ratio float64
	// BoundPs is the uncertainty half-width at the anchor instant.
	BoundPs float64
	// DriftPPM grows the half-width as the snapshot ages (parts per
	// million of elapsed raw time).
	DriftPPM float64
	// MaxAgePs is the serving limit; 0 means no limit.
	MaxAgePs int64
}

// at evaluates the snapshot at the raw timebase reading raw: the UTC
// estimate and its uncertainty interval. It is the one place the
// interval formula is written; a nil snapshot (nothing published) fails
// closed with errNoSnapshot.
func (sn *Snapshot) at(raw int64) (utcPs float64, iv Interval, err error) {
	if sn == nil {
		return 0, Interval{}, errNoSnapshot
	}
	age := raw - sn.AnchorRaw
	if sn.MaxAgePs > 0 && age > sn.MaxAgePs {
		return 0, Interval{}, ErrStale
	}
	utcPs = sn.AnchorUTC + float64(age)*sn.Ratio
	eps := sn.BoundPs + sn.DriftPPM*1e-6*math.Abs(float64(age))
	return utcPs, Interval{EarliestPs: utcPs - eps, LatestPs: utcPs + eps}, nil
}

// Store publishes Snapshots by pointer: Publish stores a pointer to a
// fresh copy, and a read is one atomic load of that pointer. A published
// snapshot is never written again, so a reader holding an old pointer
// sees a whole snapshot however many publishes pass, and the garbage
// collector is the grace period that keeps it alive until the reader
// lets go. Nothing retries and nothing blocks; the cost is one small
// allocation per Publish (the calibration cadence). The zero Store is
// empty and ready to use.
//
// Publish is single-writer (the calibration tick); Read is safe from
// any number of goroutines.
type Store struct {
	cur atomic.Pointer[Snapshot]
}

// Publish makes sn the current snapshot. Only one goroutine may call
// Publish, so epochs reach readers in order.
func (s *Store) Publish(sn Snapshot) {
	s.cur.Store(&sn)
}

// Read returns the current snapshot. ok is false before the first
// Publish.
func (s *Store) Read() (sn Snapshot, ok bool) {
	p := s.cur.Load()
	if p == nil {
		return Snapshot{}, false
	}
	return *p, true
}

// Epoch returns the current snapshot's epoch (0 before any publish).
func (s *Store) Epoch() uint64 {
	if p := s.cur.Load(); p != nil {
		return p.Epoch
	}
	return 0
}
