package xo

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

// TestSetCounterAtNearUint64Wrap: jumping the counter label to the top
// of the 64-bit range must keep CounterAt exact — the label then wraps
// through zero while the underlying tick phase never moves, which is
// what a DTP counter does after ~3700 years of 10 GbE uptime (or
// immediately, in a test).
func TestSetCounterAtNearUint64Wrap(t *testing.T) {
	sch := sim.NewScheduler()
	clk := NewClock(sch, sim.NewRNG(1, "wrap"), Default10G(0))
	sch.Run(sim.Microsecond)
	now := sch.Now()

	near := ^uint64(0) - 10 // 2^64 - 11
	clk.setCounterAt(near, now)
	if got := clk.CounterAt(now); got != near {
		t.Fatalf("CounterAt after jump = %d, want %d", got, near)
	}
	// 20 ticks later (6.4 ns each) the counter has wrapped modulo 2^64.
	later := now + 20*6400*sim.Picosecond
	sch.Run(later)
	if got := clk.CounterAt(later); got != near+20 { // wraps to 9
		t.Fatalf("CounterAt across the wrap = %d, want %d", got, near+20)
	}
	if got := clk.CounterAt(later); got >= near {
		t.Fatalf("counter did not wrap: %d", got)
	}
}

// TestSetCounterAtMSBRollover: jumps across the 2^53 beacon-MSB
// boundary — the point where the transmitted LSB field rolls over and
// BEACON-MSB messages carry the change — keep tick arithmetic exact in
// both directions (CounterAt and TimeOfCount stay inverses).
func TestSetCounterAtMSBRollover(t *testing.T) {
	sch := sim.NewScheduler()
	clk := NewClock(sch, sim.NewRNG(2, "msb"), Default10G(50)) // fast clock: non-nominal period
	sch.Run(sim.Microsecond)
	now := sch.Now()

	const boundary = uint64(1) << 53
	clk.setCounterAt(boundary-3, now)
	for n := boundary - 3; n < boundary+3; n++ {
		at := clk.TimeOfCount(n)
		if got := clk.CounterAt(at); got < n {
			t.Fatalf("CounterAt(TimeOfCount(%d)) = %d", n, got)
		}
		if at > now && clk.CounterAt(at-sim.Picosecond) >= n {
			t.Fatalf("tick %d reported before its instant", n)
		}
	}
	// Monotone across the boundary under further forward jumps.
	sch.Run(clk.TimeOfCount(boundary + 3))
	clk.setCounterAt(boundary+100, sch.Now())
	if got := clk.Counter(); got < boundary+100 {
		t.Fatalf("counter moved backwards across MSB rollover: %d", got)
	}
}

// TestSetCounterAtBackwardPanics: the hardware register only moves
// forward (lc = max(lc, c+d)); a backward jump is a programming error.
func TestSetCounterAtBackwardPanics(t *testing.T) {
	sch := sim.NewScheduler()
	clk := NewClock(sch, sim.NewRNG(3, "back"), Default10G(0))
	sch.Run(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("backward setCounterAt did not panic")
		}
	}()
	clk.setCounterAt(clk.Counter()-1, sch.Now())
}
