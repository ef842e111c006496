package phy

import (
	"bytes"
	"testing"
)

// TestPipelineFramesAndMessagesInterleaved is the §4.4 story end to
// end: a stream of Ethernet frames with DTP messages in every
// interpacket gap goes through 64b/66b encoding and the scrambler; the
// receive side descrambles, extracts and scrubs the DTP messages, and
// reassembles the frames — which must be untouched, while every message
// arrives intact.
func TestPipelineFramesAndMessagesInterleaved(t *testing.T) {
	codec := Codec{Parity: true}
	scr := NewScrambler()
	desc := newDescrambler()
	// Link bring-up: the descrambler self-synchronizes within 58 bits;
	// real links exchange idles during block alignment before any data.
	for i := 0; i < 2; i++ {
		desc.descramble(scr.Scramble(IdleBlock().Payload))
	}

	// Build the transmit stream: [IPG with message][frame][IPG with
	// message][frame]...
	var stream []Block
	var sentMsgs []Message
	var sentFrames [][]byte
	counter := uint64(0x1234_5678)
	for i := 0; i < 20; i++ {
		// Interpacket gap: one /E/ carrying a beacon + one plain /E/.
		m := Message{Type: MsgBeacon, Payload: counter & codec.CounterMask()}
		counter += 200
		sentMsgs = append(sentMsgs, m)
		stream = append(stream, codec.EmbedMessage(m), IdleBlock())

		frame := mkFrame(64 + i*100)
		sentFrames = append(sentFrames, frame)
		blocks, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, blocks...)
	}

	// Scramble the payloads (sync headers travel clear), then
	// descramble on the "receive side".
	var rx []Block
	for _, b := range stream {
		wire := Block{Sync: b.Sync, Payload: scr.Scramble(b.Payload)}
		rx = append(rx, Block{Sync: wire.Sync, Payload: desc.descramble(wire.Payload)})
	}

	// RX DTP sublayer: pull messages out of idle blocks and scrub them;
	// then the PCS decodes frames from what remains.
	var gotMsgs []Message
	var scrubbed []Block
	for _, b := range rx {
		clean, m, ok := codec.ExtractMessage(b)
		if ok {
			gotMsgs = append(gotMsgs, m)
		}
		scrubbed = append(scrubbed, clean)
	}
	// Scrubbed stream must contain zero DTP residue.
	for _, b := range scrubbed {
		if b.isIdle() && b.controlBits() != 0 {
			t.Fatalf("unscrubbed idle block: %v", b)
		}
	}
	// Frames reassemble from the scrubbed stream.
	var gotFrames [][]byte
	for i := 0; i < len(scrubbed); {
		b := scrubbed[i]
		if b.Sync == syncControl && b.blockType() == btStart {
			j := i + 1
			for ; j < len(scrubbed); j++ {
				if scrubbed[j].Sync == syncControl && scrubbed[j].blockType() != btStart {
					break
				}
			}
			frame, err := Decode(scrubbed[i : j+1])
			if err != nil {
				t.Fatalf("frame decode after scrub: %v", err)
			}
			gotFrames = append(gotFrames, frame)
			i = j + 1
			continue
		}
		i++
	}

	if len(gotMsgs) != len(sentMsgs) {
		t.Fatalf("messages: sent %d, received %d", len(sentMsgs), len(gotMsgs))
	}
	for i := range sentMsgs {
		if gotMsgs[i] != sentMsgs[i] {
			t.Fatalf("message %d corrupted: %v != %v", i, gotMsgs[i], sentMsgs[i])
		}
	}
	if len(gotFrames) != len(sentFrames) {
		t.Fatalf("frames: sent %d, received %d", len(sentFrames), len(gotFrames))
	}
	for i := range sentFrames {
		if !bytes.Equal(gotFrames[i], sentFrames[i]) {
			t.Fatalf("frame %d corrupted by DTP sublayer", i)
		}
	}
}

// TestPipelineBandwidthUnaffected checks the zero-overhead claim: the
// block count of a stream with DTP messages equals the block count
// without them (messages occupy blocks that would otherwise be idles).
func TestPipelineBandwidthUnaffected(t *testing.T) {
	codec := Codec{}
	frame := mkFrame(1522)
	blocks, err := Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	withMsg := append([]Block{codec.EmbedMessage(Message{Type: MsgBeacon, Payload: 7}), IdleBlock()}, blocks...)
	without := append([]Block{IdleBlock(), IdleBlock()}, blocks...)
	if len(withMsg) != len(without) {
		t.Fatalf("DTP message changed the block count: %d vs %d", len(withMsg), len(without))
	}
}
