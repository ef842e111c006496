package core

import (
	"testing"
	"testing/quick"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
	"github.com/dtplab/dtp/internal/xo"
)

func newCounterFixture(delta uint64) (*sim.Scheduler, *unitCounter) {
	sch := sim.NewScheduler()
	clk := xo.NewClock(sch, sim.NewRNG(1, "uc"), xo.Default10G(0))
	return sch, newUnitCounter(clk, delta)
}

func TestUnitCounterAdvancesByDelta(t *testing.T) {
	sch, u := newCounterFixture(20)
	sch.Run(sim.Microsecond)
	// 1us / 6.4ns = 156.25 ticks -> 156 ticks * 20 units.
	got := u.at(sch.Now())
	if got != 156*20 {
		t.Fatalf("counter = %d, want %d", got, 156*20)
	}
}

func TestUnitCounterSetAtForward(t *testing.T) {
	sch, u := newCounterFixture(1)
	sch.Run(sim.Microsecond)
	now := sch.Now()
	u.setAt(u.at(now)+42, now)
	if got := u.at(now); got != 156+42 {
		t.Fatalf("after jump counter = %d, want %d", got, 156+42)
	}
	// Rate resumes unchanged.
	sch.Run(2 * sim.Microsecond)
	if got := u.at(sch.Now()); got != 156+42+156 {
		t.Fatalf("after jump + 1us = %d, want %d", got, 156+42+156)
	}
}

func TestUnitCounterSetAtBackwardPanics(t *testing.T) {
	sch, u := newCounterFixture(1)
	sch.Run(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("backward jump did not panic")
		}
	}()
	u.setAt(u.at(sch.Now())-1, sch.Now())
}

func TestReconstructNearExact(t *testing.T) {
	cases := []struct {
		local, lsb uint64
		bits       uint
		want       uint64
	}{
		{1000, 1000, 53, 1000},
		{1000, 998, 53, 998},
		{1000, 1003, 53, 1003},
		// Wrap-around: local just past a 2^8 boundary, lsb just before.
		{0x105, 0xfe, 8, 0xfe},
		// Local just before a boundary, lsb just after.
		{0xfe, 0x02, 8, 0x102},
		// Same at the 2^53 boundary DTP actually uses.
		{1<<53 + 3, 1<<53 - 2, 53, 1<<53 - 2},
		{1<<53 - 2, 2, 53, 1<<53 + 2},
		// Very large counters (second wrap).
		{5<<53 + 7, 4, 53, 5<<53 + 4},
	}
	for _, c := range cases {
		if got := reconstructNear(c.local, c.lsb, c.bits); got != c.want {
			t.Errorf("reconstructNear(%#x, %#x, %d) = %#x, want %#x", c.local, c.lsb, c.bits, got, c.want)
		}
	}
}

// Property: reconstruction recovers any true value within a quarter
// modulus of the local counter.
func TestReconstructNearProperty(t *testing.T) {
	f := func(local uint64, delta int32) bool {
		const bits = 53
		mod := uint64(1) << bits
		local %= mod << 4 // keep headroom for +mod
		d := int64(delta) % int64(mod/4)
		truth := int64(local) + d
		if truth < 0 {
			return true
		}
		got := reconstructNear(local, uint64(truth)&(mod-1), bits)
		return got == uint64(truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReconstructNearUint64Wrap: the beacon LSB reconstruction is
// circular modulo 2^64 — a local counter sitting just below the 64-bit
// wrap must recover peer values on the far side (which read as tiny
// uint64s), and vice versa.
func TestReconstructNearUint64Wrap(t *testing.T) {
	const bits = 53
	max := ^uint64(0)
	cases := []struct {
		local, truth uint64
	}{
		// Peer a few units ahead, across the wrap.
		{max - 2, max + 4}, // max+4 wraps to 3
		{max - 2, 1},
		// Peer a few units behind, local already wrapped.
		{3, max - 1},
		{0, max - 5},
		// Exactly at the boundary.
		{max, 0},
		{0, max},
		// Far from the wrap but crossing an MSB rollover of the LSB field.
		{1<<60 + 1<<bits - 2, 1<<60 + 1<<bits + 3},
		{1<<60 + 1<<bits + 1, 1<<60 + 1<<bits - 4},
	}
	for _, c := range cases {
		if got := reconstructNear(c.local, c.truth&(1<<bits-1), bits); got != c.truth {
			t.Errorf("reconstructNear(%#x, lsb(%#x)) = %#x, want %#x",
				c.local, c.truth, got, c.truth)
		}
	}
}

// TestUnitCounterResetAt: power loss restarts the counter from zero —
// the one legitimate backward movement — and clears stall state.
func TestUnitCounterResetAt(t *testing.T) {
	sch, u := newCounterFixture(1)
	sch.Run(sim.Microsecond)
	now := sch.Now()
	u.setAt(u.at(now)+1_000_000, now)
	u.stallBy(10, now)
	if u.at(now) == 0 {
		t.Fatal("counter did not advance before reset")
	}
	u.resetAt(now)
	if got := u.at(now); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
	// It runs again at the oscillator rate from the reset instant.
	sch.Run(2 * sim.Microsecond)
	if got := u.at(sch.Now()); got != 156 {
		t.Fatalf("counter 1us after reset = %d, want 156", got)
	}
	// And jumping (the INIT/JOIN path after a crash) still works.
	u.setAt(500, sch.Now())
	if got := u.at(sch.Now()); got != 500 {
		t.Fatalf("post-reset jump = %d, want 500", got)
	}
}

// An idle link (no frame blocks) offers a slot every cycle.
func TestOpenGate(t *testing.T) {
	var p Port
	for _, w := range []uint64{0, 1, 12345} {
		if p.nextSlot(w) != w {
			t.Fatal("an idle link delayed a slot")
		}
	}
}

func TestSaturatedGateSlots(t *testing.T) {
	p := Port{portHot: portHot{frameBlocks: 200}}
	cases := []struct{ want, slot uint64 }{
		{0, 0}, {1, 200}, {200, 200}, {201, 400}, {399, 400},
	}
	for _, c := range cases {
		if got := p.nextSlot(c.want); got != c.slot {
			t.Fatalf("nextSlot(%d) = %d, want %d", c.want, got, c.slot)
		}
	}
}

// Network.SetLoad turns a frame size into blocks per frame on every
// port, and 0 back into an idle link.
func TestSaturatedGateFromFrameSize(t *testing.T) {
	n, err := NewNetwork(sim.NewScheduler(), 1, topo.Pair(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.LinkPorts(0)
	for _, c := range []struct {
		octets int
		lo, hi uint64
	}{
		// MTU frames: ~193 blocks per frame incl. IPG — one beacon slot
		// per frame, ~200 ticks, matching §4.4.
		{1522, 185, 200},
		{9022, 1120, 1200},
		{0, 0, 0},
	} {
		n.SetLoad(c.octets)
		for _, p := range []*Port{a, b} {
			if p.frameBlocks < c.lo || p.frameBlocks > c.hi {
				t.Fatalf("SetLoad(%d): %s frame blocks = %d", c.octets, p.Name(), p.frameBlocks)
			}
		}
	}
}

// Property: an idle and a loaded link return a slot at or after the
// requested cycle, and are monotone when driven past the last slot (the
// way the beacon scheduler drives them).
func TestGateSlotProperty(t *testing.T) {
	f := func(deltas []uint8) bool {
		for _, fb := range []uint64{0, 200} {
			p := Port{portHot: portHot{frameBlocks: fb}}
			want := uint64(0)
			for _, d := range deltas {
				want += uint64(d) + 1
				slot := p.nextSlot(want)
				if slot < want {
					return false
				}
				want = slot // next request comes after this slot
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
