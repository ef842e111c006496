package phy

import (
	"testing"
	"testing/quick"
)

func TestFragmentRoundTrip(t *testing.T) {
	c := Codec{}
	for _, m := range []Message{
		{Type: MsgBeacon, Payload: 0},
		{Type: MsgBeacon, Payload: 0x1f_ffff_ffff_ffff},
		{Type: MsgInit, Payload: 0xdeadbeef},
		{Type: MsgBeaconMSB, Payload: 1 << 52},
	} {
		a := NewAssembler(c)
		frags := FragmentMessage(c, m)
		for i, f := range frags {
			got, ok := a.Push(f)
			if i < fragmentsPerMessage-1 {
				if ok {
					t.Fatalf("message completed after %d fragments", i+1)
				}
				continue
			}
			if !ok || got != m {
				t.Fatalf("reassembly of %v: got %v ok=%v", m, got, ok)
			}
		}
	}
}

func TestFragmentSeqAndChunk(t *testing.T) {
	c := Codec{}
	frags := FragmentMessage(c, Message{Type: MsgBeacon, Payload: 0x123456789abcd})
	for i, f := range frags {
		if f.seq() != i {
			t.Fatalf("fragment %d has seq %d", i, f.seq())
		}
		if f.chunk()>>fragmentBits != 0 {
			t.Fatalf("chunk overflow in fragment %d", i)
		}
	}
}

func TestAssemblerResetsOnGap(t *testing.T) {
	c := Codec{}
	a := NewAssembler(c)
	m := Message{Type: MsgBeacon, Payload: 42}
	frags := FragmentMessage(c, m)
	// Deliver 0, 1, then lose 2; next message must still assemble.
	a.Push(frags[0])
	a.Push(frags[1])
	a.Push(frags[3]) // out of order: resets
	var got Message
	var ok bool
	for _, f := range FragmentMessage(c, m) {
		got, ok = a.Push(f)
	}
	if !ok || got != m {
		t.Fatalf("assembler did not recover after gap: %v ok=%v", got, ok)
	}
}

func TestAssemblerMidStreamJoin(t *testing.T) {
	// Joining mid-message (link comes up between fragments) must not
	// produce a bogus message.
	c := Codec{}
	a := NewAssembler(c)
	m := Message{Type: MsgBeaconJoin, Payload: 0x1234}
	frags := FragmentMessage(c, m)
	if _, ok := a.Push(frags[2]); ok {
		t.Fatal("mid-stream fragment produced a message")
	}
	var got Message
	var ok bool
	for _, f := range frags {
		got, ok = a.Push(f)
	}
	if !ok || got != m {
		t.Fatal("assembler did not resync at seq 0")
	}
}

func TestFragmentEmbedExtract(t *testing.T) {
	c := Codec{}
	frags := FragmentMessage(c, Message{Type: MsgBeacon, Payload: 777})
	for _, f := range frags {
		b := EmbedFragment(f)
		got, ok := ExtractFragment(b)
		if !ok || got != f {
			t.Fatalf("embed/extract %v: got %v ok=%v", f, got, ok)
		}
	}
	if _, ok := ExtractFragment(IdleBlock()); ok {
		t.Fatal("empty idle produced a fragment")
	}
	if _, ok := ExtractFragment(dataBlock([8]byte{1})); ok {
		t.Fatal("data block produced a fragment")
	}
}

func TestFragmentRoundTripProperty(t *testing.T) {
	c := Codec{Parity: true}
	f := func(payload uint64, typ uint8) bool {
		m := Message{Type: MsgType(typ%5) + 1, Payload: payload & c.CounterMask()}
		a := NewAssembler(c)
		var got Message
		var ok bool
		for _, fr := range FragmentMessage(c, m) {
			got, ok = a.Push(fr)
		}
		return ok && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
