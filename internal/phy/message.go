package phy

import "fmt"

// DTP message types (§4.4 of the paper). Three bits encode the type; the
// zero value marks a plain idle block carrying no message, so reverting a
// consumed message to idles is simply writing zeros.
type MsgType uint8

const (
	MsgNone       MsgType = iota // plain /E/ block, no DTP message
	MsgInit                      // INIT: begin one-way-delay measurement
	MsgInitAck                   // INIT-ACK: reply carrying the INIT counter
	MsgBeacon                    // BEACON: periodic resynchronization
	MsgBeaconJoin                // BEACON-JOIN: large adjustment on (re)join
	MsgBeaconMSB                 // BEACON-MSB: top 53 bits of the 106-bit counter
)

func (t MsgType) String() string {
	switch t {
	case MsgNone:
		return "NONE"
	case MsgInit:
		return "INIT"
	case MsgInitAck:
		return "INIT-ACK"
	case MsgBeacon:
		return "BEACON"
	case MsgBeaconJoin:
		return "BEACON-JOIN"
	case MsgBeaconMSB:
		return "BEACON-MSB"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// PayloadBits is the width of a DTP message payload: the 56 control bits
// of an /E/ block minus the 3-bit type field. Each message carries the 53
// least significant bits of the sender's counter.
const PayloadBits = 53

// payloadMask masks a counter to the transmitted 53 bits.
const payloadMask = 1<<PayloadBits - 1

// Message is a decoded DTP protocol message.
type Message struct {
	Type    MsgType
	Payload uint64 // 53 bits
}

// Codec encodes DTP messages into the 56 control-character bits of /E/
// blocks. With Parity enabled, the most significant payload bit is
// replaced by even parity over the three least significant payload bits —
// the guard the paper proposes against bit errors in the beacon LSBs
// (§3.2 "Handling failures"). Payloads then carry 52 significant bits,
// which still takes >300 days to wrap at 6.4 ns per tick.
type Codec struct {
	Parity bool
}

// parityBit returns even parity over the three least significant bits.
func parityBit(payload uint64) uint64 {
	return (payload ^ payload>>1 ^ payload>>2) & 1
}

// encode packs a message into 56 control bits. It panics on a payload
// wider than the codec allows; callers mask counters with payloadMask.
func (c Codec) encode(m Message) uint64 {
	if m.Type == MsgNone {
		return 0
	}
	if m.Type > MsgBeaconMSB {
		panic(fmt.Sprintf("phy: invalid message type %d", m.Type))
	}
	payload := m.Payload
	if c.Parity {
		if payload>>(PayloadBits-1) != 0 {
			panic(fmt.Sprintf("phy: payload %#x overflows %d bits (parity mode)", payload, PayloadBits-1))
		}
		payload |= parityBit(payload) << (PayloadBits - 1)
	} else if payload>>PayloadBits != 0 {
		panic(fmt.Sprintf("phy: payload %#x overflows %d bits", payload, PayloadBits))
	}
	return uint64(m.Type) | payload<<3
}

// decode unpacks 56 control bits. ok is false for a plain idle block
// (type 0), an undefined type, or — in parity mode — a parity mismatch,
// which the caller must treat as a dropped message per the paper's
// failure-handling rule.
func (c Codec) decode(bits uint64) (m Message, ok bool) {
	t := MsgType(bits & 0b111)
	if t == MsgNone || t > MsgBeaconMSB {
		return Message{}, false
	}
	payload := bits >> 3 & payloadMask
	if c.Parity {
		got := payload >> (PayloadBits - 1)
		payload &= 1<<(PayloadBits-1) - 1
		if got != parityBit(payload) {
			return Message{}, false
		}
	}
	return Message{Type: t, Payload: payload}, true
}

// CounterMask returns the mask for payload counter bits under this codec:
// 53 bits, or 52 with parity enabled.
func (c Codec) CounterMask() uint64 {
	if c.Parity {
		return 1<<(PayloadBits-1) - 1
	}
	return payloadMask
}

// EmbedMessage returns an idle block carrying m.
func (c Codec) EmbedMessage(m Message) Block {
	return IdleBlock().withControlBits(c.encode(m))
}

// ExtractMessage pulls a DTP message out of an idle block, returning the
// scrubbed block (control bits restored to idles, as required so higher
// layers never see DTP) and the message if one was present.
func (c Codec) ExtractMessage(b Block) (clean Block, m Message, ok bool) {
	if !b.isIdle() {
		return b, Message{}, false
	}
	m, ok = c.decode(b.controlBits())
	return b.withControlBits(0), m, ok
}
