package phy

import (
	"errors"
	"fmt"
)

// Framer converts MAC frames to PCS block sequences and back. The 802.3
// interpacket gap of at least twelve /I/ characters guarantees at least
// one /E/ block between frames (§4.1), which is where DTP inserts its
// messages: the framer therefore also reports, for a given frame size,
// how many blocks a frame occupies — the quantity that bounds the beacon
// interval under load (200 blocks for MTU frames, ~1200 for jumbo).

// MinInterpacketIdles is the minimum number of /I/ characters between
// frames required by the standard.
const MinInterpacketIdles = 12

// BlocksPerFrame returns the number of 66-bit blocks needed to carry a
// frame of the given size in octets (including preamble and FCS), plus
// the mandatory interpacket gap. This is the minimum beacon interval in
// ticks when the link is saturated with frames of that size.
func BlocksPerFrame(frameOctets int) int {
	if frameOctets <= 0 {
		return 2 // a bare IPG still needs blocks
	}
	// Start block carries 7 octets, data blocks 8 each; the terminate
	// block carries the remainder. IPG: 12 idles = at least 2 control
	// blocks in practice (one /T/-adjacent, one full /E/).
	payload := frameOctets - 7 // octets after the start block
	if payload < 0 {
		payload = 0
	}
	dataBlocks := payload / 8
	rem := payload % 8
	blocks := 1 + dataBlocks + 1 // /S/ + data + /T/ (T carries rem octets)
	_ = rem
	idleBlocks := (MinInterpacketIdles + 7) / 8
	return blocks + idleBlocks
}

// encode converts frame octets into the block sequence /S/ D... /T/.
// The caller supplies the full frame including preamble; per clause 49
// the first octet is replaced by the start control character, so frames
// must be at least 8 octets.
func Encode(frame []byte) ([]Block, error) {
	if len(frame) < 8 {
		return nil, fmt.Errorf("phy: frame of %d octets too short to encode", len(frame))
	}
	var blocks []Block
	// Start block: type 0x78, octets 1..7 of the frame as D1..D7.
	var p uint64 = btStart
	for i := 0; i < 7; i++ {
		p |= uint64(frame[1+i]) << (8 * (i + 1))
	}
	blocks = append(blocks, Block{Sync: syncControl, Payload: p})
	rest := frame[8:]
	for len(rest) >= 8 {
		var oct [8]byte
		copy(oct[:], rest[:8])
		blocks = append(blocks, dataBlock(oct))
		rest = rest[8:]
	}
	// Terminate block carrying len(rest) trailing octets.
	k := len(rest)
	p = uint64(termTypes[k])
	for i := 0; i < k; i++ {
		p |= uint64(rest[i]) << (8 * (i + 1))
	}
	blocks = append(blocks, Block{Sync: syncControl, Payload: p})
	return blocks, nil
}

// errBadSequence reports an invalid block sequence during decode.
var errBadSequence = errors.New("phy: invalid block sequence")

// decode reassembles a frame from its block sequence, inverting encode.
// The first octet (consumed by the start control character) is restored
// as the standard preamble octet 0x55.
func Decode(blocks []Block) ([]byte, error) {
	if len(blocks) < 2 || blocks[0].Sync != syncControl || blocks[0].blockType() != btStart {
		return nil, errBadSequence
	}
	frame := []byte{0x55}
	p := blocks[0].Payload >> 8
	for i := 0; i < 7; i++ {
		frame = append(frame, byte(p>>(8*i)))
	}
	for _, b := range blocks[1:] {
		switch {
		case b.Sync == syncData:
			for i := 0; i < 8; i++ {
				frame = append(frame, byte(b.Payload>>(8*i)))
			}
		case b.Sync == syncControl:
			k := -1
			for j, tt := range termTypes {
				if b.blockType() == tt {
					k = j
					break
				}
			}
			if k < 0 {
				return nil, errBadSequence
			}
			p := b.Payload >> 8
			for i := 0; i < k; i++ {
				frame = append(frame, byte(p>>(8*i)))
			}
			return frame, nil
		default:
			return nil, errBadSequence
		}
	}
	return nil, errBadSequence // never saw a terminate block
}
