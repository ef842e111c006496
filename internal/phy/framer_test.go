package phy

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/dtplab/dtp/internal/sim"
)

func mkFrame(n int) []byte {
	f := make([]byte, n)
	f[0] = 0x55 // preamble octet replaced by /S/ on the wire
	for i := 1; i < n; i++ {
		f[i] = byte(i * 7)
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{8, 9, 15, 16, 17, 64, 72, 1530, 9022} {
		f := mkFrame(n)
		blocks, err := Encode(f)
		if err != nil {
			t.Fatalf("Encode(%d): %v", n, err)
		}
		got, err := Decode(blocks)
		if err != nil {
			t.Fatalf("Decode(%d): %v", n, err)
		}
		if !bytes.Equal(got, f) {
			t.Fatalf("roundtrip mismatch at %d octets", n)
		}
	}
}

func TestEncodeRejectsShortFrame(t *testing.T) {
	if _, err := Encode(make([]byte, 7)); err == nil {
		t.Fatal("7-octet frame accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]Block{
		nil,
		{IdleBlock()},
		{IdleBlock(), IdleBlock()},
		{{Sync: syncControl, Payload: btStart}}, // start but no terminate
		{{Sync: syncControl, Payload: btStart}, {Sync: 3}},
	}
	for i, blocks := range cases {
		if _, err := Decode(blocks); err == nil {
			t.Fatalf("case %d: garbage decoded", i)
		}
	}
}

func TestEncodeBlockStructure(t *testing.T) {
	f := mkFrame(72) // 72 = 8 + 64: start block + 8 data blocks + T0
	blocks, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0].blockType() != btStart {
		t.Fatal("first block not /S/")
	}
	last := blocks[len(blocks)-1]
	if last.Sync != syncControl || last.blockType() != btTerm0 {
		t.Fatalf("last block %v, want T0", last)
	}
	for _, b := range blocks[1 : len(blocks)-1] {
		if b.Sync != syncData {
			t.Fatalf("interior block %v not data", b)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) < 8 {
			return true
		}
		blocks, err := Encode(body)
		if err != nil {
			return false
		}
		got, err := Decode(blocks)
		if err != nil {
			return false
		}
		// Octet 0 is consumed by /S/ and restored as 0x55.
		return bytes.Equal(got[1:], body[1:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksPerFrameMatchesPaper(t *testing.T) {
	// §4.4: "The PHY requires about 191 66-bit blocks and 1,129 66-bit
	// blocks to transmit a MTU-sized or jumbo-sized frame" and DTP can
	// send a beacon every ~200 (MTU) / ~1200 (jumbo) cycles.
	mtu := BlocksPerFrame(1522)
	if mtu < 185 || mtu > 200 {
		t.Fatalf("BlocksPerFrame(MTU) = %d, want ~191", mtu)
	}
	jumbo := BlocksPerFrame(9022)
	if jumbo < 1120 || jumbo > 1200 {
		t.Fatalf("BlocksPerFrame(jumbo) = %d, want ~1129", jumbo)
	}
}

func TestBlocksPerFrameMatchesEncoder(t *testing.T) {
	for _, n := range []int{64, 512, 1522, 9022} {
		blocks, err := Encode(mkFrame(n))
		if err != nil {
			t.Fatal(err)
		}
		// BlocksPerFrame = encoded blocks + IPG blocks.
		want := len(blocks) + 2
		if got := BlocksPerFrame(n); got < want-1 || got > want+1 {
			t.Fatalf("BlocksPerFrame(%d) = %d, encoder produced %d (+2 IPG)", n, got, len(blocks))
		}
	}
}

func TestProfilesReproduceTable2(t *testing.T) {
	want := map[Speed]struct {
		period int64
		delta  int64
	}{
		Speed1G:   {8_000_000, 25},
		Speed10G:  {6_400_000, 20},
		Speed40G:  {1_600_000, 5},
		Speed100G: {640_000, 2},
	}
	for s, w := range want {
		p := ProfileFor(s)
		if p.PeriodFs != w.period || p.Delta != w.delta {
			t.Fatalf("%v: period=%d delta=%d, want %d/%d", s, p.PeriodFs, p.Delta, w.period, w.delta)
		}
		// The invariant that makes mixed-speed counters coherent.
		if p.Delta*BaseTickFs != p.PeriodFs {
			t.Fatalf("%v: Delta*BaseTick = %d != period %d", s, p.Delta*BaseTickFs, p.PeriodFs)
		}
	}
}

func TestProfileTickPeriod(t *testing.T) {
	if sim.Femto(ProfileFor(Speed10G).PeriodFs) != 6400*sim.Picosecond {
		t.Fatal("10G tick period wrong")
	}
	if sim.Femto(ProfileFor(Speed100G).PeriodFs) != 640*sim.Picosecond {
		t.Fatal("100G tick period wrong")
	}
}

func TestProfileByteTime(t *testing.T) {
	// 1522 octets at 10 Gbps = 1217.6 ns.
	got := ProfileFor(Speed10G).ByteTime(1522)
	if got < 1217*sim.Nanosecond || got > 1218*sim.Nanosecond {
		t.Fatalf("ByteTime(1522) = %v", got)
	}
}

func TestProfileForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown speed did not panic")
		}
	}()
	ProfileFor(Speed(42))
}
