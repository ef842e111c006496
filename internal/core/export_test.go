package core

// SetFusedChain turns link flights (and with them settled landings and
// the inbox) on or off and returns the previous setting. Off, every
// block takes the five-event chain: the reference the flights must
// match byte for byte.
func SetFusedChain(on bool) (was bool) {
	was, fuseChain = fuseChain, on
	return was
}

// InboxArrivals returns how many settled arrivals n's devices have
// filed in their inboxes instead of scheduling evSettled.
func InboxArrivals(n *Network) (total uint64) {
	for _, d := range n.Devices {
		total += d.inboxed
	}
	return total
}

// CapInboxes shrinks every device inbox of a freshly built n to
// perDevice entries, so that arrivals overflow to evSettled. A network
// built without inboxes keeps none.
func CapInboxes(n *Network, perDevice int) {
	for _, d := range n.Devices {
		if len(d.in) > 0 {
			d.in = make([]arrival, perDevice)
		}
	}
}
