// Package phy models the 10 Gigabit Ethernet physical coding sublayer
// (PCS) as specified by IEEE 802.3ae clause 49: 64b/66b block coding, the
// self-synchronizing scrambler, idle control blocks, and the DTP extension
// that embeds protocol messages into otherwise-idle /E/ blocks.
//
// One 66-bit block occupies exactly one 156.25 MHz clock period on the
// wire (66 bits / 10.3125 Gbaud = 6.4 ns), which is why the paper's tick T
// equals 6.4 ns: the PHY emits one block — and DTP can carry one message —
// per tick.
package phy

import "fmt"

// Sync headers, transmitted before the 64-bit (scrambled) payload.
const (
	// SyncData marks a block carrying eight data octets.
	SyncData = 0b01
	// SyncControl marks a block whose payload begins with a block type
	// field followed by control and/or data characters.
	SyncControl = 0b10
)

// Block type fields for control blocks (IEEE 802.3 figure 49-7, subset
// sufficient for full-duplex point-to-point Ethernet).
const (
	BTIdle  = 0x1e // C0..C7: eight 7-bit control codes (idles)
	BTStart = 0x78 // S0 D1..D7: start of packet, seven data octets
	BTTerm0 = 0x87 // T0: terminate immediately, seven idles follow
	BTTerm1 = 0x99
	BTTerm2 = 0xaa
	BTTerm3 = 0xb4
	BTTerm4 = 0xcc
	BTTerm5 = 0xd2
	BTTerm6 = 0xe1
	BTTerm7 = 0xff // D0..D6 T7: seven data octets then terminate
)

// termTypes[k] is the block type terminating a frame with k trailing data
// octets in the final block.
var termTypes = [8]byte{BTTerm0, BTTerm1, BTTerm2, BTTerm3, BTTerm4, BTTerm5, BTTerm6, BTTerm7}

// Block is a 66-bit PCS block.
type Block struct {
	Sync    byte   // SyncData or SyncControl (2 bits on the wire)
	Payload uint64 // 64-bit payload; for control blocks, bits 0-7 are the block type field
}

// IdleBlock returns an /E/ block: type 0x1e with eight idle characters.
func IdleBlock() Block {
	return Block{Sync: SyncControl, Payload: BTIdle}
}

// DataBlock returns a block of eight data octets, octet 0 in the least
// significant byte (the PCS transmits least significant byte first).
func DataBlock(octets [8]byte) Block {
	var p uint64
	for i := 7; i >= 0; i-- {
		p = p<<8 | uint64(octets[i])
	}
	return Block{Sync: SyncData, Payload: p}
}

// BlockType returns the block type field of a control block.
func (b Block) BlockType() byte { return byte(b.Payload) }

// IsIdle reports whether b is an all-idle /E/ control block (possibly
// carrying a DTP message in its control-character bits).
func (b Block) IsIdle() bool {
	return b.Sync == SyncControl && b.BlockType() == BTIdle
}

// IsControl reports whether b is any control block.
func (b Block) IsControl() bool { return b.Sync == SyncControl }

// Valid reports whether the sync header is one of the two legal values.
// A corrupted sync header is how the receiver detects bit errors in the
// header; payload errors are caught at higher layers (CRC) or by DTP's
// own guards.
func (b Block) Valid() bool { return b.Sync == SyncData || b.Sync == SyncControl }

// ControlBits returns the 56 control-character bits of a control block
// (everything above the block type field).
func (b Block) ControlBits() uint64 { return b.Payload >> 8 }

// WithControlBits returns a copy of b with its 56 control-character bits
// replaced. Panics if more than 56 bits are supplied.
func (b Block) WithControlBits(bits uint64) Block {
	if bits>>56 != 0 {
		panic(fmt.Sprintf("phy: control bits overflow: %#x", bits))
	}
	b.Payload = b.Payload&0xff | bits<<8
	return b
}

// String renders the block for debugging.
func (b Block) String() string {
	switch {
	case b.Sync == SyncData:
		return fmt.Sprintf("D[%016x]", b.Payload)
	case b.IsIdle():
		if b.ControlBits() == 0 {
			return "E[idle]"
		}
		return fmt.Sprintf("E[%014x]", b.ControlBits())
	case b.Sync == SyncControl:
		return fmt.Sprintf("C[type=%02x %014x]", b.BlockType(), b.ControlBits())
	default:
		return fmt.Sprintf("?[sync=%d %016x]", b.Sync, b.Payload)
	}
}
