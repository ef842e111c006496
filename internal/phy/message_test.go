package phy

import (
	"testing"
	"testing/quick"
)

func TestMessageRoundTripNoParity(t *testing.T) {
	c := Codec{}
	for _, typ := range []MsgType{MsgInit, MsgInitAck, MsgBeacon, MsgBeaconJoin, MsgBeaconMSB} {
		for _, payload := range []uint64{0, 1, 0x1f_ffff_ffff_ffff, 1 << 52} {
			m := Message{Type: typ, Payload: payload}
			got, ok := c.decode(c.encode(m))
			if !ok || got != m {
				t.Fatalf("roundtrip %v/%#x: got %v ok=%v", typ, payload, got, ok)
			}
		}
	}
}

func TestMessageRoundTripParity(t *testing.T) {
	c := Codec{Parity: true}
	for _, payload := range []uint64{0, 7, 0xf_ffff_ffff_ffff} {
		m := Message{Type: MsgBeacon, Payload: payload}
		got, ok := c.decode(c.encode(m))
		if !ok || got != m {
			t.Fatalf("parity roundtrip %#x: got %v ok=%v", payload, got, ok)
		}
	}
}

func TestMessageNoneEncodesToZero(t *testing.T) {
	c := Codec{}
	if c.encode(Message{Type: MsgNone}) != 0 {
		t.Fatal("MsgNone must encode to all-zero idle bits")
	}
	if _, ok := c.decode(0); ok {
		t.Fatal("all-zero bits decoded as a message")
	}
}

func TestMessageUndefinedTypeRejected(t *testing.T) {
	c := Codec{}
	for _, bits := range []uint64{6, 7} { // types 6 and 7 undefined
		if _, ok := c.decode(bits); ok {
			t.Fatalf("undefined type %d accepted", bits)
		}
	}
}

func TestMessagePayloadOverflowPanics(t *testing.T) {
	c := Codec{}
	defer func() {
		if recover() == nil {
			t.Fatal("54-bit payload did not panic")
		}
	}()
	c.encode(Message{Type: MsgBeacon, Payload: 1 << 53})
}

func TestParityDetectsLSBErrors(t *testing.T) {
	c := Codec{Parity: true}
	bits := c.encode(Message{Type: MsgBeacon, Payload: 0x1234})
	// Flip each of the three LSB payload bits (wire bits 3,4,5): parity
	// must catch every single-bit error there.
	for i := 3; i <= 5; i++ {
		if _, ok := c.decode(bits ^ 1<<i); ok {
			t.Fatalf("flip of wire bit %d not detected", i)
		}
	}
}

func TestParityRoundTripProperty(t *testing.T) {
	c := Codec{Parity: true}
	f := func(payload uint64) bool {
		payload &= c.CounterMask()
		m := Message{Type: MsgBeacon, Payload: payload}
		got, ok := c.decode(c.encode(m))
		return ok && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterMask(t *testing.T) {
	if (Codec{}).CounterMask() != 1<<53-1 {
		t.Fatal("plain codec mask")
	}
	if (Codec{Parity: true}).CounterMask() != 1<<52-1 {
		t.Fatal("parity codec mask")
	}
}

func TestEmbedExtractMessage(t *testing.T) {
	c := Codec{}
	m := Message{Type: MsgBeaconJoin, Payload: 0xabcdef}
	b := c.EmbedMessage(m)
	if !b.isIdle() {
		t.Fatal("embedded message not an idle block")
	}
	clean, got, ok := c.ExtractMessage(b)
	if !ok || got != m {
		t.Fatalf("extract: got %v ok=%v", got, ok)
	}
	// Scrubbing: higher layers must see a pristine idle block (§4.2).
	if clean.controlBits() != 0 {
		t.Fatalf("scrubbed block still carries bits: %#x", clean.controlBits())
	}
}

func TestExtractFromNonIdle(t *testing.T) {
	c := Codec{}
	b := dataBlock([8]byte{1, 2, 3})
	clean, _, ok := c.ExtractMessage(b)
	if ok {
		t.Fatal("extracted message from data block")
	}
	if clean != b {
		t.Fatal("data block altered by ExtractMessage")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, typ := range []MsgType{MsgNone, MsgInit, MsgInitAck, MsgBeacon, MsgBeaconJoin, MsgBeaconMSB, MsgType(9)} {
		if typ.String() == "" {
			t.Fatal("empty MsgType string")
		}
	}
}

func TestMessageSurvivesScrambling(t *testing.T) {
	// End-to-end: embed → scramble → descramble → extract, as on a real
	// link where the payload (including DTP bits) is scrambled.
	c := Codec{Parity: true}
	s := NewScrambler()
	d := newDescrambler()
	d.descramble(s.Scramble(0)) // sync
	m := Message{Type: MsgBeacon, Payload: 0x000f_edcb_a987_6543 & c.CounterMask()}
	tx := c.EmbedMessage(m)
	wire := Block{Sync: tx.Sync, Payload: s.Scramble(tx.Payload)}
	rx := Block{Sync: wire.Sync, Payload: d.descramble(wire.Payload)}
	_, got, ok := c.ExtractMessage(rx)
	if !ok || got != m {
		t.Fatalf("message through scrambler: got %v ok=%v", got, ok)
	}
}
