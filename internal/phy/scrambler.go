package phy

// Scrambler implements the self-synchronizing PCS scrambler, polynomial
// G(x) = 1 + x^39 + x^58 (IEEE 802.3 clause 49.2.6). Only the 64-bit block
// payload is scrambled; the 2-bit sync header is transmitted in the clear.
//
// DTP messages ride inside the payload, so they are scrambled like any
// other bits — this is why embedding counters in /E/ blocks does not
// disturb the DC balance of the line signal (§4.4 of the paper).
type Scrambler struct {
	state uint64 // 58-bit shift register, bit i = S_i
}

// NewScrambler returns a scrambler with a fixed nonzero initial state.
// Any state works: the receiver self-synchronizes after 58 bits.
func NewScrambler() *Scrambler {
	return &Scrambler{state: 0x3ff_ffff_ffff_ffff} // all 58 bits set
}

// scrambleBit scrambles one bit.
func (s *Scrambler) scrambleBit(in uint64) uint64 {
	out := (in ^ s.state>>38 ^ s.state>>57) & 1
	s.state = s.state<<1&(1<<58-1) | out
	return out
}

// Scramble scrambles a 64-bit payload, least significant bit first (the
// PCS transmission order).
func (s *Scrambler) Scramble(payload uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= s.scrambleBit(payload>>i&1) << i
	}
	return out
}
