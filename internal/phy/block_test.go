package phy

import (
	"testing"
	"testing/quick"
)

func TestIdleBlock(t *testing.T) {
	b := IdleBlock()
	if !b.isIdle() || b.Sync != syncControl || !b.Valid() {
		t.Fatal("IdleBlock misclassified")
	}
	if b.controlBits() != 0 {
		t.Fatalf("idle block control bits = %#x, want 0", b.controlBits())
	}
	if b.blockType() != btIdle {
		t.Fatalf("idle block type = %#x, want %#x", b.blockType(), btIdle)
	}
}

func TestDataBlockOctetOrder(t *testing.T) {
	b := dataBlock([8]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	if b.Sync != syncData {
		t.Fatal("dataBlock sync header wrong")
	}
	if b.Payload != 0x0807060504030201 {
		t.Fatalf("payload = %#x", b.Payload)
	}
	if b.isIdle() || b.Sync == syncControl {
		t.Fatal("data block misclassified as control")
	}
}

func TestWithControlBitsRoundTrip(t *testing.T) {
	b := IdleBlock().withControlBits(0x00ab_cdef_0123_45)
	if got := b.controlBits(); got != 0x00ab_cdef_0123_45 {
		t.Fatalf("control bits = %#x", got)
	}
	if b.blockType() != btIdle {
		t.Fatal("block type clobbered by WithControlBits")
	}
}

func TestWithControlBitsOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("57-bit control bits did not panic")
		}
	}()
	IdleBlock().withControlBits(1 << 56)
}

func TestBlockValidity(t *testing.T) {
	if (Block{Sync: 0b00}).Valid() || (Block{Sync: 0b11}).Valid() {
		t.Fatal("invalid sync header accepted")
	}
	if !(Block{Sync: syncData}).Valid() || !(Block{Sync: syncControl}).Valid() {
		t.Fatal("valid sync header rejected")
	}
}

func TestBlockString(t *testing.T) {
	for _, b := range []Block{IdleBlock(), dataBlock([8]byte{1}), {Sync: 3}} {
		if b.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestScramblerRoundTrip(t *testing.T) {
	s := NewScrambler()
	d := newDescrambler()
	// The descrambler self-synchronizes within 58 bits; the first block
	// may decode wrong, everything after must round-trip.
	inputs := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef, 0, ^uint64(0), 0x1e}
	_ = d.descramble(s.Scramble(0xffffffffffffffff)) // sync block
	for _, in := range inputs {
		if got := d.descramble(s.Scramble(in)); got != in {
			t.Fatalf("roundtrip(%#x) = %#x", in, got)
		}
	}
}

func TestScramblerSelfSynchronization(t *testing.T) {
	// A descrambler starting from an arbitrary state must converge after
	// one full block (64 > 58 state bits).
	s := NewScrambler()
	d := &descrambler{state: 0x2aaa_aaaa_aaaa_aaa}
	d.descramble(s.Scramble(0x5555555555555555))
	for i, in := range []uint64{1, 2, 3, 0xfedcba9876543210} {
		if got := d.descramble(s.Scramble(in)); got != in {
			t.Fatalf("block %d after sync: got %#x want %#x", i, got, in)
		}
	}
}

func TestScramblerChangesBits(t *testing.T) {
	s := NewScrambler()
	if s.Scramble(0) == 0 {
		t.Fatal("scrambler with nonzero state left zero payload unchanged")
	}
}

func TestScramblerRoundTripProperty(t *testing.T) {
	s := NewScrambler()
	d := newDescrambler()
	d.descramble(s.Scramble(0)) // synchronize
	f := func(in uint64) bool {
		return d.descramble(s.Scramble(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScrambleDCStatistics(t *testing.T) {
	// Scrambled idle blocks should look random: roughly half ones. This
	// is the property that lets DTP rewrite idle bits without changing
	// the electrical characteristics of the line (§4.4).
	s := NewScrambler()
	ones := 0
	n := 1000
	for i := 0; i < n; i++ {
		v := s.Scramble(IdleBlock().Payload)
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(64*n)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("scrambled idle ones fraction = %.3f, want ~0.5", frac)
	}
}
