package core

// SetFusedChain turns the three-event beacon chain on or off and
// returns the previous setting. Off, every block takes the five-event
// chain: the reference the fused chain must match byte for byte.
func SetFusedChain(on bool) (was bool) {
	was, fuseChain = fuseChain, on
	return was
}
