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
	// syncData marks a block carrying eight data octets.
	syncData = 0b01
	// syncControl marks a block whose payload begins with a block type
	// field followed by control and/or data characters.
	syncControl = 0b10
)

// Block type fields for control blocks (IEEE 802.3 figure 49-7, subset
// sufficient for full-duplex point-to-point Ethernet).
const (
	btIdle  = 0x1e // C0..C7: eight 7-bit control codes (idles)
	btStart = 0x78 // S0 D1..D7: start of packet, seven data octets
	btTerm0 = 0x87 // T0: terminate immediately, seven idles follow
	btTerm1 = 0x99
	btTerm2 = 0xaa
	btTerm3 = 0xb4
	btTerm4 = 0xcc
	btTerm5 = 0xd2
	btTerm6 = 0xe1
	btTerm7 = 0xff // D0..D6 T7: seven data octets then terminate
)

// termTypes[k] is the block type terminating a frame with k trailing data
// octets in the final block.
var termTypes = [8]byte{btTerm0, btTerm1, btTerm2, btTerm3, btTerm4, btTerm5, btTerm6, btTerm7}

// Block is a 66-bit PCS block.
type Block struct {
	Sync    byte   // syncData or syncControl (2 bits on the wire)
	Payload uint64 // 64-bit payload; for control blocks, bits 0-7 are the block type field
}

// IdleBlock returns an /E/ block: type 0x1e with eight idle characters.
func IdleBlock() Block {
	return Block{Sync: syncControl, Payload: btIdle}
}

// dataBlock returns a block of eight data octets, octet 0 in the least
// significant byte (the PCS transmits least significant byte first).
func dataBlock(octets [8]byte) Block {
	var p uint64
	for i := 7; i >= 0; i-- {
		p = p<<8 | uint64(octets[i])
	}
	return Block{Sync: syncData, Payload: p}
}

// blockType returns the block type field of a control block.
func (b Block) blockType() byte { return byte(b.Payload) }

// isIdle reports whether b is an all-idle /E/ control block (possibly
// carrying a DTP message in its control-character bits).
func (b Block) isIdle() bool {
	return b.Sync == syncControl && b.blockType() == btIdle
}

// Valid reports whether the sync header is one of the two legal values.
// A corrupted sync header is how the receiver detects bit errors in the
// header; payload errors are caught at higher layers (CRC) or by DTP's
// own guards.
func (b Block) Valid() bool { return b.Sync == syncData || b.Sync == syncControl }

// controlBits returns the 56 control-character bits of a control block
// (everything above the block type field).
func (b Block) controlBits() uint64 { return b.Payload >> 8 }

// withControlBits returns a copy of b with its 56 control-character bits
// replaced. Panics if more than 56 bits are supplied.
func (b Block) withControlBits(bits uint64) Block {
	if bits>>56 != 0 {
		panic(fmt.Sprintf("phy: control bits overflow: %#x", bits))
	}
	b.Payload = b.Payload&0xff | bits<<8
	return b
}

// String renders the block for debugging.
func (b Block) String() string {
	switch {
	case b.Sync == syncData:
		return fmt.Sprintf("D[%016x]", b.Payload)
	case b.isIdle():
		if b.controlBits() == 0 {
			return "E[idle]"
		}
		return fmt.Sprintf("E[%014x]", b.controlBits())
	case b.Sync == syncControl:
		return fmt.Sprintf("C[type=%02x %014x]", b.blockType(), b.controlBits())
	default:
		return fmt.Sprintf("?[sync=%d %016x]", b.Sync, b.Payload)
	}
}
