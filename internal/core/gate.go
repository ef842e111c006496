package core

import "github.com/dtplab/dtp/internal/phy"

// TxGate models when the transmit path has an idle /E/ block available
// for a DTP message. The standard guarantees at least one /E/ block per
// interpacket gap, so even a fully saturated link offers one message slot
// per frame (§4.4); an idle link offers a slot every tick.
//
// NextSlot returns a slot >= want. Callers drive it with strictly
// increasing `want` values (the next beacon is always requested after
// the previous slot), so no cross-query ordering is required.
type TxGate interface {
	NextSlot(want uint64) uint64
}

// OpenGate is an idle link: every tick carries an /E/ block.
type OpenGate struct{}

// NextSlot returns want: the link is always free.
func (OpenGate) NextSlot(want uint64) uint64 { return want }

// SaturatedGate models a link fully loaded with back-to-back frames of a
// fixed size: message slots exist only in the interpacket gap, i.e. once
// every BlocksPerFrame ticks. This is the paper's "heavily loaded"
// condition: beacon opportunities every ~200 ticks for MTU frames,
// ~1200 for jumbo.
type SaturatedGate struct {
	FrameBlocks uint64 // blocks (= ticks) per frame including IPG; the first gap is at tick 0
}

// NewSaturatedGate builds a gate for back-to-back frames of the given
// octet size.
func NewSaturatedGate(frameOctets int) SaturatedGate {
	return SaturatedGate{FrameBlocks: uint64(phy.BlocksPerFrame(frameOctets))}
}

// NextSlot returns the first interpacket gap at or after want.
func (g SaturatedGate) NextSlot(want uint64) uint64 {
	if g.FrameBlocks <= 1 {
		return want
	}
	return (want + g.FrameBlocks - 1) / g.FrameBlocks * g.FrameBlocks
}
