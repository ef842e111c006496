package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// bruteMaxPairwiseOffset is MaxPairwiseOffset as it was: every pair,
// both counters read again for each.
func bruteMaxPairwiseOffset(n *Network) int64 {
	var max int64
	for i := range n.Devices {
		for j := i + 1; j < len(n.Devices); j++ {
			o := n.TrueOffsetUnits(i, j)
			if o < 0 {
				o = -o
			}
			if o > max {
				max = o
			}
		}
	}
	return max
}

// Property: the single-pass spread equals the all-pairs maximum for any
// counter set spanning less than 2^63, wherever its centre sits —
// including sets astride 2^63 (where int64(c) changes sign) and astride
// the 2^64 wrap (where c itself does).
func TestMaxPairwiseOffsetMatchesBruteForce(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, topo.FatTree(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1, "maxoffset")
	centres := []uint64{0, 1 << 20, 1<<53 - 1, 1<<63 - 3, 1 << 63, 1<<63 + 3, ^uint64(0) - 2, ^uint64(0)}
	for trial := 0; trial < 2000; trial++ {
		centre := rng.Uint64()
		if trial < 4*len(centres) {
			centre = centres[trial%len(centres)]
		}
		radius := uint64(1) << rng.IntN(63) // spans from 1 unit to 2^62
		for _, d := range n.Devices {
			d.gc.base = centre - radius/2 + rng.Uint64N(radius)
		}
		// One device alone, then growing prefixes, then everyone.
		all := n.Devices
		for _, k := range []int{1, 2, 3, len(all)} {
			n.Devices = all[:k]
			if got, want := n.MaxPairwiseOffset(), bruteMaxPairwiseOffset(n); got != want {
				t.Fatalf("trial %d (centre %#x, radius %#x, %d devices): single pass %d, brute force %d",
					trial, centre, radius, k, got, want)
			}
		}
		n.Devices = all
	}
}
