package timesvc

import (
	"math"
	"sync/atomic"
)

// ε-budget attribution: every published half-width is the sum of four
// components, recorded so an operator can see *which* error source is
// paying for a wide interval rather than just that it is wide.
const (
	// attrAudit: the audited cross-host 4TD hardware bound plus the
	// fixed software-access margin, converted to UTC ps.
	attrAudit = iota
	// attrDaemon: the daemon's self-reported TSC↔counter estimate
	// error (PCIe calibration noise), converted to UTC ps.
	attrDaemon
	// attrBcast: the UTC broadcaster's self-reported anchor error
	// (root-dispersion style), converted to UTC ps.
	attrBcast
	// attrResid: the follower's realized prediction residual with tail
	// factor and cold-start floor, already in UTC ps.
	attrResid

	numAttrComponents
)

// attrComponentNames are the stable component label values, in
// recording order.
var attrComponentNames = [numAttrComponents]string{
	"audit", "daemon", "broadcast", "residual",
}

// attrState holds the per-component accounting. The simulation
// goroutine is the only writer (publish ticks are scheduler events);
// the atomic words exist so the /healthz handler and the dtpd
// attribution table can read consistently from other goroutines.
// All words hold math.Float64bits.
type attrState struct {
	last [numAttrComponents]atomic.Uint64
	sum  [numAttrComponents]atomic.Uint64
}

// record stores one publish's component split. Single-writer: plain
// read-modify-write on the sums is safe, the atomic stores only
// protect readers from torn words.
func (a *attrState) record(comps *[numAttrComponents]float64) {
	for i, v := range comps {
		a.last[i].Store(math.Float64bits(v))
		a.sum[i].Store(math.Float64bits(math.Float64frombits(a.sum[i].Load()) + v))
	}
}

// ComponentStat is one component's view in an Attribution.
type ComponentStat struct {
	// Name is the stable component label ("audit", "daemon",
	// "broadcast", "residual").
	Name string `json:"name"`
	// LastPs is the component's contribution to the most recent
	// published half-width, in ps.
	LastPs float64 `json:"last_ps"`
	// MeanPs is the mean contribution across all publishes, in ps
	// (0 before the first publish).
	MeanPs float64 `json:"mean_ps"`
	// Share is the component's fraction of the cumulative ε budget
	// (0..1; 0 before the first publish). Values stay finite so an
	// Attribution always JSON-encodes.
	Share float64 `json:"share"`
}

// Attribution is a snapshot of the ε-budget split. Safe to call from
// any goroutine.
type Attribution struct {
	// Host is the served host.
	Host string `json:"host"`
	// Publishes is how many snapshots the split covers.
	Publishes uint64 `json:"publishes"`
	// TotalLastPs is the most recent published half-width, in ps.
	TotalLastPs float64 `json:"total_last_ps"`
	// Components lists the four components in stable order.
	Components []ComponentStat `json:"components"`
	// Dominant names the component with the largest cumulative share —
	// the error source that is paying for the interval width.
	Dominant string `json:"dominant"`
}

// Attribution returns the current ε-budget split.
func (s *Service) Attribution() Attribution {
	a := Attribution{
		Host:       s.host,
		Publishes:  s.publishes.Load(),
		Components: make([]ComponentStat, numAttrComponents),
	}
	var totalSum float64
	var sums [numAttrComponents]float64
	for i := range sums {
		sums[i] = math.Float64frombits(s.attr.sum[i].Load())
		totalSum += sums[i]
	}
	n := float64(a.Publishes)
	domIdx := 0
	for i := range a.Components {
		last := math.Float64frombits(s.attr.last[i].Load())
		a.TotalLastPs += last
		c := ComponentStat{Name: attrComponentNames[i], LastPs: last}
		if n > 0 {
			c.MeanPs = sums[i] / n
		}
		if totalSum > 0 {
			c.Share = sums[i] / totalSum
		}
		a.Components[i] = c
		if sums[i] > sums[domIdx] {
			domIdx = i
		}
	}
	if totalSum > 0 {
		a.Dominant = attrComponentNames[domIdx]
	}
	return a
}
