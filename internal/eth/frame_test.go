package eth

import "testing"

func TestProtoStrings(t *testing.T) {
	for _, p := range []Proto{ProtoBulk, ProtoPTPEvent, ProtoPTPGeneral, ProtoNTP, ProtoApp, Proto(99)} {
		if p.String() == "" {
			t.Fatal("empty Proto string")
		}
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Src: 1, Dst: 2, Size: 64, Proto: ProtoNTP}
	if f.String() == "" {
		t.Fatal("empty frame string")
	}
}

func TestFrameSizeConstants(t *testing.T) {
	// Sanity: sizes ordered and in the ranges the paper uses.
	if !(MinFrame < PTPEventFrame && PTPEventFrame < UDPNTPFrame && UDPNTPFrame < MTUFrame && MTUFrame < jumboFrame) {
		t.Fatal("frame size constants out of order")
	}
	if MTUFrame != 1522 || jumboFrame != 9022 {
		t.Fatal("paper frame sizes changed")
	}
}
