package fabric

import (
	"testing"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

func newStar(t *testing.T, cfg Config) (*sim.Scheduler, *Network) {
	t.Helper()
	sch := sim.NewScheduler()
	n, err := New(sch, 1, topo.Star(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sch, n
}

func TestFrameDeliveredToHandler(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	var got *eth.Frame
	var rxAt sim.Time
	n.Handle(2, eth.ProtoApp, func(f *eth.Frame, rx sim.Time) { got, rxAt = f, rx })
	f := &eth.Frame{Src: 1, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoApp}
	sch.After(sim.Microsecond, func() {
		if !n.Send(f) {
			t.Error("send failed")
		}
	})
	sch.Run(sim.Millisecond)
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if got.Hops != 1 {
		t.Fatalf("hops = %d, want 1 (one switch)", got.Hops)
	}
	if f.TxStart != sim.Microsecond {
		t.Fatalf("TX hardware timestamp %v, want 1us", f.TxStart)
	}
	// Latency sanity for cut-through: two 10m cables (100ns), header
	// (51.2ns) + proc (500ns) at the switch, and one full MTU
	// serialization (~1218ns) observed at the receiving NIC (the source
	// serialization overlaps with forwarding).
	lat := rxAt - f.TxStart
	if lat < 1800*sim.Nanosecond || lat > 2*sim.Microsecond {
		t.Fatalf("path latency %v, want ~1.87us", lat)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	var order []int
	n.Handle(2, eth.ProtoApp, func(f *eth.Frame, rx sim.Time) {
		order = append(order, f.Payload.(int))
	})
	for i := 0; i < 50; i++ {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.MinFrame, Proto: eth.ProtoApp, Payload: i})
	}
	sch.Run(sim.Millisecond)
	if len(order) != 50 {
		t.Fatalf("delivered %d/50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered: position %d has %d", i, v)
		}
	}
}

func TestQueueTailDrop(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	delivered := 0
	n.Handle(2, eth.ProtoApp, func(f *eth.Frame, rx sim.Time) { delivered++ })
	// Source queue capacity is the binding constraint: blast 1.5 queues'
	// worth of frames instantaneously.
	const blast = 3 * queueCapBytes / 2 / eth.MTUFrame
	sent := 0
	for i := 0; i < blast; i++ {
		if n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoApp}) {
			sent++
		}
	}
	sch.Run(10 * sim.Millisecond)
	if sent >= blast {
		t.Fatal("no sends rejected despite an overfull queue")
	}
	if n.Drops() == 0 {
		t.Fatal("drop counter not incremented")
	}
	if delivered != sent {
		t.Fatalf("delivered %d != accepted %d", delivered, sent)
	}
}

func TestQueueingDelayGrowsWithContention(t *testing.T) {
	// Two hosts blast the same destination: the switch egress toward it
	// must queue about half the offered load.
	sch, n := newStar(t, DefaultConfig())
	var worst sim.Time
	probeSent := sim.Time(0)
	n.Handle(2, eth.ProtoApp, func(f *eth.Frame, rx sim.Time) {
		if d := rx - probeSent; d > worst {
			worst = d
		}
	})
	g1 := NewTrafficGen(n, 3, 2, eth.MTUFrame, 9, 16, 11)
	g2 := NewTrafficGen(n, 4, 2, eth.MTUFrame, 9, 16, 12)
	g1.Start()
	g2.Start()
	// Periodic probes measure path latency under congestion.
	var probe func()
	probe = func() {
		probeSent = sch.Now()
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.MinFrame, Proto: eth.ProtoApp})
		sch.After(sim.Millisecond, probe)
	}
	sch.After(0, probe)
	sch.Run(20 * sim.Millisecond)
	if worst < 10*sim.Microsecond {
		t.Fatalf("worst probe latency %v; expected >=10us of queueing under 2x9Gbps into 10Gbps", worst)
	}
}

func TestTransparentClockRealisticMissesQueueWait(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	var corr int64
	var rxAt sim.Time
	var f *eth.Frame
	n.Handle(2, eth.ProtoPTPEvent, func(fr *eth.Frame, rx sim.Time) { f, corr, rxAt = fr, fr.CorrectionPs, rx })
	// Contend the switch egress toward host 2 so the PTP frame suffers
	// real queue wait the realistic TC will fail to measure.
	for i := 0; i < 60; i++ {
		n.Send(&eth.Frame{Src: 3, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
		n.Send(&eth.Frame{Src: 4, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
	}
	sch.After(30*sim.Microsecond, func() {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.PTPEventFrame, Proto: eth.ProtoPTPEvent})
	})
	sch.Run(10 * sim.Millisecond)
	if f == nil {
		t.Fatal("PTP frame lost")
	}
	_ = rxAt
	// Realistic TC correction covers only pipeline latency (~551ns =
	// header 51ns + proc 500ns), far less than the ~60us queue wait.
	if corr > int64(2*sim.Microsecond) {
		t.Fatalf("realistic TC correction %dps covers queue wait; should not", corr)
	}
}

func TestTransparentClockPerfectCoversQueueWait(t *testing.T) {
	sch, n := newStar(t, Config{TC: TCPerfect})
	var corr int64
	n.Handle(2, eth.ProtoPTPEvent, func(fr *eth.Frame, rx sim.Time) { corr = fr.CorrectionPs })
	// Two hosts blast the shared switch egress toward host 2, building
	// a real queue there; the PTP frame arrives mid-burst and waits.
	for i := 0; i < 60; i++ {
		n.Send(&eth.Frame{Src: 3, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
		n.Send(&eth.Frame{Src: 4, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
	}
	sch.After(30*sim.Microsecond, func() {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.PTPEventFrame, Proto: eth.ProtoPTPEvent})
	})
	sch.Run(10 * sim.Millisecond)
	// The switch egress held tens of microseconds of backlog; a perfect
	// TC must have measured the wait.
	if corr < int64(10*sim.Microsecond) {
		t.Fatalf("perfect TC correction %dps did not cover queue wait", corr)
	}
}

func TestTCOffNoCorrection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TC = TCOff
	sch, n := newStar(t, cfg)
	var corr int64 = -1
	n.Handle(2, eth.ProtoPTPEvent, func(fr *eth.Frame, rx sim.Time) { corr = fr.CorrectionPs })
	n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.PTPEventFrame, Proto: eth.ProtoPTPEvent})
	sch.Run(sim.Millisecond)
	if corr != 0 {
		t.Fatalf("correction %d with TC off", corr)
	}
}

func TestPTPPriorityQueueJumpsBulk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PTPPriority = true
	sch, n := newStar(t, cfg)
	var ptpAt, firstBulkAt sim.Time
	bulkDelivered := 0
	n.Handle(2, eth.ProtoPTPEvent, func(f *eth.Frame, rx sim.Time) { ptpAt = rx })
	n.Handle(2, eth.ProtoBulk, func(f *eth.Frame, rx sim.Time) {
		bulkDelivered++
		if firstBulkAt == 0 {
			firstBulkAt = rx
		}
	})
	// Two hosts contend for host 2's link with bulk frames, then a PTP
	// event frame arrives: with strict priority it must overtake the
	// whole backlog.
	for i := 0; i < 40; i++ {
		n.Send(&eth.Frame{Src: 3, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
		n.Send(&eth.Frame{Src: 4, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
	}
	// At 40 us the switch egress toward host 2 holds ~40 us of backlog
	// (2x line rate in, 1x out). A priority frame sent then must jump
	// it, arriving within a few serializations.
	sch.After(40*sim.Microsecond, func() {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.PTPEventFrame, Proto: eth.ProtoPTPEvent})
	})
	sch.Run(sim.Millisecond)
	if bulkDelivered != 80 {
		t.Fatalf("bulk delivered %d/80", bulkDelivered)
	}
	if ptpAt == 0 {
		t.Fatal("PTP frame lost")
	}
	if ptpAt > 50*sim.Microsecond {
		t.Fatalf("priority PTP frame arrived at %v — waited behind bulk", ptpAt)
	}
}

func TestPTPPriorityOffWaitsInFIFO(t *testing.T) {
	sch, n := newStar(t, DefaultConfig()) // priority disabled
	var ptpAt sim.Time
	n.Handle(2, eth.ProtoPTPEvent, func(f *eth.Frame, rx sim.Time) { ptpAt = rx })
	for i := 0; i < 40; i++ {
		n.Send(&eth.Frame{Src: 3, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
		n.Send(&eth.Frame{Src: 4, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
	}
	sch.After(40*sim.Microsecond, func() {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.PTPEventFrame, Proto: eth.ProtoPTPEvent})
	})
	sch.Run(sim.Millisecond)
	// It lands behind ~40 us of switch backlog plus its own path.
	if ptpAt < 70*sim.Microsecond {
		t.Fatalf("FIFO PTP frame at %v did not wait behind the backlog", ptpAt)
	}
}

func TestBulkTrafficRate(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	received := 0
	n.Handle(2, eth.ProtoBulk, func(f *eth.Frame, rx sim.Time) { received++ })
	g := NewTrafficGen(n, 1, 2, eth.MTUFrame, 4.0, 8, 21)
	g.Start()
	sch.Run(50 * sim.Millisecond)
	g.Stop()
	// 4 Gbps of 1522B frames for 50ms = ~16.4k frames.
	gotGbps := float64(received*eth.MTUFrame*8) / 1e9 / 0.050
	if gotGbps < 3.5 || gotGbps > 4.5 {
		t.Fatalf("delivered %.2f Gbps, want ~4", gotGbps)
	}
	if g.Sent() == 0 {
		t.Fatal("generator sent nothing")
	}
}

func TestSprayGenHitsAllDestinations(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	got := map[int]int{}
	for _, node := range []int{2, 3, 4, 5} {
		node := node
		n.Handle(node, eth.ProtoBulk, func(f *eth.Frame, rx sim.Time) { got[node]++ })
	}
	g := NewSprayGen(n, 2, []int{2, 3, 4, 5}, 4.0, 8, 77)
	g.Start()
	sch.Run(20 * sim.Millisecond)
	g.Stop()
	sch.RunFor(5 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("sprayer sent nothing")
	}
	if got[2] != 0 {
		t.Fatal("sprayer sent to itself")
	}
	for _, node := range []int{3, 4, 5} {
		if got[node] == 0 {
			t.Fatalf("destination %d never hit", node)
		}
	}
	after := g.Sent()
	sch.RunFor(20 * sim.Millisecond)
	if g.Sent() != after {
		t.Fatal("stopped sprayer kept sending")
	}
}

func TestSprayGenNeedsDestinations(t *testing.T) {
	_, n := newStar(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("empty destination set accepted")
		}
	}()
	NewSprayGen(n, 2, nil, 1, 1, 1)
}

func TestMultiHopDelivery(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := New(sch, 3, topo.PaperTree(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s4, _ := n.Graph.ByName("s4")
	s11, _ := n.Graph.ByName("s11")
	var hops int
	n.Handle(s11.ID, eth.ProtoApp, func(f *eth.Frame, rx sim.Time) { hops = f.Hops })
	n.Send(&eth.Frame{Src: s4.ID, Dst: s11.ID, Size: eth.MTUFrame, Proto: eth.ProtoApp})
	sch.Run(sim.Millisecond)
	if hops != 3 {
		t.Fatalf("hops = %d, want 3 switches (s1, s0, s3)", hops)
	}
}

func TestQueueDepthObservable(t *testing.T) {
	sch, n := newStar(t, DefaultConfig())
	for i := 0; i < 20; i++ {
		n.Send(&eth.Frame{Src: 1, Dst: 2, Size: eth.MTUFrame, Proto: eth.ProtoBulk})
	}
	if n.QueueDepthBytes(1, 2) == 0 {
		t.Fatal("source egress queue empty right after 20 sends")
	}
	sch.Run(10 * sim.Millisecond)
	if n.QueueDepthBytes(1, 2) != 0 {
		t.Fatal("queue did not drain")
	}
	if n.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestSendRejectsZeroSize(t *testing.T) {
	_, n := newStar(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size frame accepted")
		}
	}()
	n.Send(&eth.Frame{Src: 1, Dst: 2, Proto: eth.ProtoApp})
}

// TestBadConfigRejected: the fabric refuses a topology it cannot route.
func TestBadConfigRejected(t *testing.T) {
	g := topo.Star(2)
	g.Links = g.Links[1:] // one host loses its only cable
	if _, err := New(sim.NewScheduler(), 1, g, DefaultConfig()); err == nil {
		t.Fatal("disconnected topology accepted")
	}
}
