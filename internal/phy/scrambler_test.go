package phy

// descrambler is the matching self-synchronizing descrambler: the
// reference the tests check the scrambler against (the simulator carries
// payloads unscrambled, so no receive path needs it).
type descrambler struct {
	state uint64
}

// newDescrambler returns a descrambler. Its initial state is deliberately
// different from the scrambler's to exercise self-synchronization.
func newDescrambler() *descrambler {
	return &descrambler{}
}

// descrambleBit descrambles one bit.
func (d *descrambler) descrambleBit(in uint64) uint64 {
	out := (in ^ d.state>>38 ^ d.state>>57) & 1
	d.state = d.state<<1&(1<<58-1) | in&1
	return out
}

// descramble descrambles a 64-bit payload, least significant bit first.
func (d *descrambler) descramble(payload uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= d.descrambleBit(payload>>i&1) << i
	}
	return out
}
