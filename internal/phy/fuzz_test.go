package phy

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fzBlocks reads raw as 9-byte blocks: a sync byte (any value, legal or
// not) then the little-endian 64-bit payload. A short tail is dropped.
func fzBlocks(raw []byte) []Block {
	var out []Block
	for ; len(raw) >= 9; raw = raw[9:] {
		out = append(out, Block{Sync: raw[0], Payload: binary.LittleEndian.Uint64(raw[1:9])})
	}
	return out
}

func fzRaw(blocks ...Block) []byte {
	var raw []byte
	for _, b := range blocks {
		raw = append(raw, b.Sync)
		raw = binary.LittleEndian.AppendUint64(raw, b.Payload)
	}
	return raw
}

// FuzzPHYDecode drives every receive-side decoder with arbitrary input:
// none may panic, and whatever one accepts must survive a round trip.
func FuzzPHYDecode(f *testing.F) {
	for _, parity := range []bool{false, true} {
		c := Codec{Parity: parity}
		for t := MsgInit; t <= MsgBeaconMSB; t++ {
			m := Message{Type: t, Payload: 0x1234_5678_9abc & c.CounterMask()}
			frags := FragmentMessage(c, m)
			var blocks []Block
			for _, fr := range frags {
				blocks = append(blocks, EmbedFragment(fr))
			}
			f.Add(parity, c.encode(m), fzRaw(append(blocks, c.EmbedMessage(m))...))
		}
	}
	beacon := Codec{Parity: true}.encode(Message{Type: MsgBeacon, Payload: 0xbeef})
	f.Add(true, beacon^1<<(3+PayloadBits-1), fzRaw(IdleBlock().withControlBits(beacon^1<<3)))
	frame := make([]byte, 1518)
	for i := range frame {
		frame[i] = byte(i * 13)
	}
	mtu, err := Encode(frame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, uint64(0), fzRaw(mtu...))

	f.Fuzz(func(t *testing.T, parity bool, bits uint64, raw []byte) {
		c := Codec{Parity: parity}
		if m, ok := c.decode(bits); ok {
			if got, want := c.encode(m), bits&(1<<56-1); got != want {
				t.Fatalf("Decode(%#x) = %+v re-encodes to %#x, want %#x", bits, m, got, want)
			}
		}
		blocks := fzBlocks(raw)
		asm := NewAssembler(c)
		for _, b := range blocks {
			c.ExtractMessage(b)
			fr, ok := ExtractFragment(b)
			if !ok {
				continue
			}
			m, ok := asm.Push(fr)
			if !ok {
				continue
			}
			again := NewAssembler(c)
			var m2 Message
			for _, fr := range FragmentMessage(c, m) {
				m2, ok = again.Push(fr)
			}
			if !ok || m2 != m {
				t.Fatalf("assembled %+v re-fragments to %+v (ok %v)", m, m2, ok)
			}
		}
		if got, err := Decode(blocks); err == nil {
			enc, err := Encode(got)
			if err != nil {
				t.Fatalf("decoded frame of %d octets does not re-encode: %v", len(got), err)
			}
			again, err := Decode(enc)
			if err != nil || !bytes.Equal(again, got) {
				t.Fatalf("decoded frame does not survive Encode/Decode (err %v)", err)
			}
		}
	})
}
