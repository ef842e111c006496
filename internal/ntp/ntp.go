// Package ntp implements the Network Time Protocol baseline (§2.4.1):
// a UDP request/response exchange with *software* timestamps — every
// timestamp passes through a modelled kernel/userspace network stack
// with long-tailed latency — an eight-sample clock filter selecting the
// minimum-delay sample, and slew-based clock adjustment. The paper's
// Table 1 characterizes NTP at microsecond precision in a LAN; the
// dominant error here is exactly the stack jitter DTP eliminates by
// running in the PHY.
package ntp

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/swclock"
)

// Config holds NTP deployment parameters.
type Config struct {
	// PollInterval is the client's request cadence (LAN deployments
	// poll every 16–64 s; compress for simulation).
	PollInterval sim.Time
	// StackMedianUs is the median of the lognormal software
	// timestamping latency (shape stackSigma) at each of the four
	// timestamp points: syscall, kernel buffering, DMA and interrupt
	// scheduling (§2.3.2). It stays a field although production uses one
	// value: TestNTPWorseThanHardwareTimestamping ablates it to show that
	// stack jitter dominates NTP's error, the claim behind Table 1's NTP
	// row.
	StackMedianUs float64
}

// A tuned LAN ntpd, as far as no experiment varies it. The floats are
// typed so every product with one is float64 arithmetic.
const (
	// stackSigma is the shape of the lognormal stack latency.
	stackSigma float64 = 0.7
	// filterWindow is the clock-filter depth (RFC 5905 uses 8).
	filterWindow = 8
	// stepThresholdUs: offsets beyond this step the clock (128 ms,
	// ntpd's step threshold).
	stepThresholdUs float64 = 128_000
	// servoGain is the fraction of the filtered offset slewed out per
	// poll.
	servoGain float64 = 0.5
	// ppmRange bounds the client system-clock oscillator error.
	ppmRange = 50
)

// DefaultConfig matches a tuned LAN ntpd.
func DefaultConfig() Config {
	return Config{
		PollInterval:  16 * sim.Second,
		StackMedianUs: 15,
	}
}

// compression is the time scale of compressed-time runs: a 16 s poll
// becomes 160 ms.
const compression = 100

// Compressed scales the poll interval by 1/compression.
func (c Config) Compressed() Config {
	c.PollInterval /= compression
	return c
}

type request struct {
	Client int
	T1     float64 // client transmit timestamp (client clock, ps)
}

type response struct {
	T1 float64 // echoed
	T2 float64 // server receive (server clock, ps)
	T3 float64 // server transmit (server clock, ps)
}

// Server is a stratum-1 NTP server: its clock is true time, read through
// the software stack.
type Server struct {
	net  *fabric.Network
	cfg  Config
	rng  *sim.RNG
	node int
}

// NewServer installs an NTP server at a host node.
func NewServer(n *fabric.Network, node int, cfg Config, seed uint64) *Server {
	s := &Server{net: n, cfg: cfg, node: node, rng: sim.NewRNG(seed, fmt.Sprintf("ntp/server/%d", node))}
	n.Handle(node, eth.ProtoNTP, s.onRequest)
	return s
}

// stackDelay models one software timestamping point.
func stackDelay(rng *sim.RNG, cfg Config) sim.Time {
	us := rng.LogNormal(math.Log(cfg.StackMedianUs), stackSigma)
	return sim.Time(us * float64(sim.Microsecond))
}

func (s *Server) onRequest(f *eth.Frame, rx sim.Time) {
	req, ok := f.Payload.(request)
	if !ok {
		return
	}
	// Receive path: the datagram is timestamped after traversing the
	// stack; transmit path adds another traversal before the wire.
	recvStack := stackDelay(s.rng, s.cfg)
	s.net.Sch.After(recvStack, func() {
		t2 := float64(s.net.Sch.Now())
		sendStack := stackDelay(s.rng, s.cfg)
		s.net.Sch.After(sendStack, func() {
			t3 := float64(s.net.Sch.Now())
			s.net.Send(&eth.Frame{
				Src: s.node, Dst: req.Client, Size: eth.UDPNTPFrame,
				Proto: eth.ProtoNTP, Payload: response{T1: req.T1, T2: t2, T3: t3},
			})
		})
	})
}

// Client is an NTP client disciplining its system clock to a server.
type Client struct {
	net  *fabric.Network
	cfg  Config
	rng  *sim.RNG
	node int
	srv  int

	Clock *swclock.Clock

	synced bool

	// filter holds (offset, delay) samples.
	filter []sample

	polls, replies, steps uint64

	// OnSample receives each filtered offset (ps).
	OnSample func(offsetPs float64)
}

type sample struct{ offset, delay float64 }

// NewClient installs an NTP client at a host node and starts it
// polling, at a random phase within the first poll interval.
func NewClient(n *fabric.Network, node, server int, cfg Config, seed uint64) *Client {
	rng := sim.NewRNG(seed, fmt.Sprintf("ntp/client/%d", node))
	c := &Client{
		net: n, cfg: cfg, node: node, srv: server, rng: rng,
		Clock: swclock.New(n.Sch, rng.Uniform(-ppmRange, ppmRange)),
	}
	c.Clock.Step(rng.Uniform(-1e10, 1e10)) // ±10 ms initial error
	n.Handle(node, eth.ProtoNTP, c.onResponse)
	n.Sch.After(rng.UniformTime(0, cfg.PollInterval), c.poll)
	return c
}

// OffsetToServerPs is ground truth: client clock minus true time.
func (c *Client) OffsetToServerPs() float64 {
	now := c.net.Sch.Now()
	return c.Clock.At(now) - float64(now)
}

func (c *Client) poll() {
	c.polls++
	// Transmit path stack delay happens before the wire sees the frame;
	// t1 is stamped at the syscall, before that delay.
	t1 := c.Clock.Now()
	c.net.Sch.After(stackDelay(c.rng, c.cfg), func() {
		c.net.Send(&eth.Frame{
			Src: c.node, Dst: c.srv, Size: eth.UDPNTPFrame,
			Proto: eth.ProtoNTP, Payload: request{Client: c.node, T1: t1},
		})
	})
	c.net.Sch.After(c.cfg.PollInterval, c.poll)
}

func (c *Client) onResponse(f *eth.Frame, rx sim.Time) {
	resp, ok := f.Payload.(response)
	if !ok {
		return
	}
	// Receive-path stack delay before the daemon can stamp t4.
	c.net.Sch.After(stackDelay(c.rng, c.cfg), func() {
		t4 := c.Clock.Now()
		c.replies++
		// RFC 5905: offset and delay from the four timestamps.
		offset := ((resp.T2 - resp.T1) + (resp.T3 - t4)) / 2
		delay := (t4 - resp.T1) - (resp.T3 - resp.T2)
		c.apply(offset, delay)
	})
}

// apply runs the clock filter and adjusts the clock.
func (c *Client) apply(offset, delay float64) {
	c.filter = append(c.filter, sample{offset, delay})
	if len(c.filter) > filterWindow {
		c.filter = c.filter[1:]
	}
	// Clock filter: the sample with minimum delay has the least
	// queueing/stack asymmetry.
	best := c.filter[0]
	for _, s := range c.filter[1:] {
		if s.delay < best.delay {
			best = s
		}
	}
	if c.OnSample != nil {
		c.OnSample(best.offset)
	}
	if !c.synced || math.Abs(best.offset) > stepThresholdUs*1e6 {
		c.Clock.Step(best.offset)
		c.synced = true
		c.steps++
		c.filter = c.filter[:0]
		return
	}
	// Discipline in two parts, as ntpd's loop does: remove a fraction
	// of the phase error directly (ntpd slews it out within the poll
	// interval; at our timescales the end state is the same), and
	// integrate a persistent frequency estimate. The direct phase term
	// damps the otherwise oscillatory double-integrator.
	corr := servoGain * best.offset
	c.Clock.Step(corr)
	// Samples still in the filter were measured against the
	// pre-correction clock; re-reference them so the min-delay pick is
	// not applied twice.
	for i := range c.filter {
		c.filter[i].offset -= corr
	}
	sec := c.cfg.PollInterval.Seconds()
	ppb := c.Clock.AdjPPB() + 0.25*servoGain*best.offset/1000/sec
	c.Clock.AdjFreq(min(max(ppb, -500_000), 500_000))
}
