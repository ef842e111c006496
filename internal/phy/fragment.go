package phy

// 1 Gigabit Ethernet support (§7). The 1G PCS uses 8b/10b line coding:
// its interpacket idles are /I/ ordered sets of two code groups
// (16 payload bits), not 64b/66b control blocks, so a 56-bit DTP message
// cannot ride in a single idle. The paper notes DTP "needs to adapt ...
// to send clock counter values with the different encoding"; this file
// implements that adaptation: a message is split into four fragments,
// each a 2-bit sequence number plus a 14-bit chunk, carried in four
// consecutive idle ordered sets. 4 × 14 = 56 bits carries the same
// 3-bit type + 53-bit payload as one 10G /E/ block.

// fragmentsPerMessage is how many ordered sets one DTP message spans at
// 1 GbE.
const fragmentsPerMessage = 4

// fragmentBits is the chunk width per fragment.
const fragmentBits = 14

// Fragment is one 16-bit ordered-set payload: seq in the top 2 bits,
// chunk in the low 14.
type Fragment uint16

// seq returns the fragment's position (0..3).
func (f Fragment) seq() int { return int(f >> fragmentBits) }

// chunk returns the fragment's 14 data bits.
func (f Fragment) chunk() uint64 { return uint64(f) & (1<<fragmentBits - 1) }

// FragmentMessage splits an encoded message (56 bits, as produced by
// Codec.encode) into four ordered-set fragments, chunk 0 carrying the
// least significant bits.
func FragmentMessage(c Codec, m Message) [fragmentsPerMessage]Fragment {
	bits := c.encode(m)
	var out [fragmentsPerMessage]Fragment
	for i := 0; i < fragmentsPerMessage; i++ {
		chunk := bits >> (i * fragmentBits) & (1<<fragmentBits - 1)
		out[i] = Fragment(uint16(i)<<fragmentBits | uint16(chunk))
	}
	return out
}

// Assembler reassembles fragments arriving in order on one link. A
// fragment with an unexpected sequence number resets the assembler
// (the partial message is lost, like a bit-errored beacon — dropped,
// not misinterpreted).
type Assembler struct {
	codec Codec
	next  int
	acc   uint64
}

// NewAssembler creates an assembler for the codec.
func NewAssembler(codec Codec) *Assembler {
	return &Assembler{codec: codec}
}

// Push consumes one fragment. When the fourth in-order fragment lands,
// it returns the decoded message.
func (a *Assembler) Push(f Fragment) (m Message, ok bool) {
	if f.seq() != a.next {
		// Out of order: drop any partial state. A seq-0 fragment can
		// still start a fresh message.
		a.next = 0
		a.acc = 0
		if f.seq() != 0 {
			return Message{}, false
		}
	}
	a.acc |= f.chunk() << (a.next * fragmentBits)
	a.next++
	if a.next < fragmentsPerMessage {
		return Message{}, false
	}
	bits := a.acc
	a.next = 0
	a.acc = 0
	return a.codec.decode(bits)
}

// EmbedFragment packs a fragment into an idle block's control bits so
// the existing wire model (propagation + bit errors over Block) carries
// it; this stands in for the 8b/10b ordered set on the line.
func EmbedFragment(f Fragment) Block {
	return IdleBlock().withControlBits(uint64(f))
}

// ExtractFragment recovers a fragment from an idle block. ok is false
// for a non-idle block or empty idles.
func ExtractFragment(b Block) (Fragment, bool) {
	if !b.isIdle() {
		return 0, false
	}
	bits := b.controlBits()
	if bits == 0 || bits>>16 != 0 {
		return 0, false
	}
	return Fragment(bits), true
}
