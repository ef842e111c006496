// Package eth defines the Ethernet frame model shared by the packet
// fabric (internal/fabric) and the packet-based time protocols
// (internal/ptp, internal/ntp). DTP itself never touches this package —
// it has no packets.
package eth

import (
	"fmt"

	"github.com/dtplab/dtp/internal/sim"
)

// Frame sizes in octets as counted on the wire (preamble + header +
// payload + FCS), matching the paper's workloads.
const (
	// MinFrame is a minimum-sized Ethernet frame (64 B + preamble).
	MinFrame = 72
	// MTUFrame is the paper's "MTU-sized (1522B)" frame: 8-byte
	// preamble, Ethernet header, 1500-byte payload, FCS.
	MTUFrame = 1522
	// jumboFrame is the paper's jumbo workload (~9 kB).
	jumboFrame = 9022
	// PTPEventFrame is a PTP Sync/Delay_Req message on the wire.
	PTPEventFrame = 90
	// UDPNTPFrame is an NTP mode-3/4 datagram on the wire.
	UDPNTPFrame = 110
)

// Proto identifies the consumer of a frame at the receiving host.
type Proto int

const (
	// ProtoBulk is background traffic (iperf-style UDP); it is counted
	// and dropped at the sink.
	ProtoBulk Proto = iota
	// ProtoPTPEvent carries timestamped PTP messages (Sync, Delay_Req,
	// Delay_Resp).
	ProtoPTPEvent
	// ProtoPTPGeneral carries non-timestamped PTP messages (Follow_Up,
	// Announce).
	ProtoPTPGeneral
	// ProtoNTP carries NTP datagrams.
	ProtoNTP
	// ProtoApp carries application-defined payloads (used by examples).
	ProtoApp
)

func (p Proto) String() string {
	switch p {
	case ProtoBulk:
		return "bulk"
	case ProtoPTPEvent:
		return "ptp-event"
	case ProtoPTPGeneral:
		return "ptp-general"
	case ProtoNTP:
		return "ntp"
	case ProtoApp:
		return "app"
	default:
		return fmt.Sprintf("Proto(%d)", int(p))
	}
}

// Frame is a frame in flight. Fields are filled in as it traverses the
// fabric.
type Frame struct {
	Src, Dst int // topology node IDs
	Size     int // octets on the wire
	Proto    Proto
	Payload  any

	// TxStart is when the first bit left the source NIC (set by the
	// fabric).
	TxStart sim.Time
	// OnTxStart, if set, fires at the source NIC the moment the first
	// bit leaves — how hardware TX timestamping latches the local clock
	// at the departure instant rather than reconstructing it later.
	OnTxStart func(t sim.Time)
	// Hops counts switch traversals.
	Hops int
	// CorrectionPs accumulates transparent-clock residence times
	// (PTP §6.1): switches add their queuing+forwarding delay estimate
	// here, in picoseconds of the switch's local clock.
	CorrectionPs int64
	// TCIngress / TCPending carry perfect-transparent-clock state
	// between a switch's ingress and the start of egress serialization.
	TCIngress sim.Time
	TCPending bool
}

func (f *Frame) String() string {
	return fmt.Sprintf("%v %d->%d (%dB)", f.Proto, f.Src, f.Dst, f.Size)
}
