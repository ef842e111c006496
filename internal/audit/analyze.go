package audit

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// This file is the offline half of the auditor: cmd/dtptrace feeds it a
// recorded JSONL trace (dtpsim -trace-out, dtpd /trace) and it
// reconstructs what the protocol did — per-port state-machine dwell
// times, OWD and beacon-offset distributions (Figure 6 style), counter
// jump causality chains, and any recorded bound violations. Everything
// is rendered with sorted keys so the same trace always produces the
// same bytes.

// stateNames maps the stable Algorithm 1 state codes traced in
// state_change V1/V2 to names; Detail carries the new-state name too,
// so unknown codes only appear with foreign traces.
var stateNames = map[int64]string{0: "down", 1: "init", 2: "synced", 3: "quarantined"}

func stateName(code int64) string {
	if n, ok := stateNames[code]; ok {
		return n
	}
	return fmt.Sprintf("state%d", code)
}

// dwellEntry is the total time one port spent in one protocol state.
type dwellEntry struct {
	Port    string
	State   string
	Entries int
	Total   sim.Time
}

// jumpChain is a causal sequence of counter jumps: each jump happened on
// a port whose peer device jumped shortly before — the max-propagation
// wavefront of §3.2 crossing the network.
type jumpChain struct {
	Ports []string   // chronological
	Times []sim.Time // event timestamps
	Sizes []int64    // jump distances, units
}

// Report is the digest of one trace.
type Report struct {
	Start, End sim.Time
	Events     int
	Dwell      []dwellEntry
	OWD        *stats.IntHist            // synced events' measured OWD, port cycles
	Offsets    *stats.IntHist            // beacon_rx offsets, ticks (Figure 6c)
	PairOff    map[string]*stats.IntHist // per receiving port
	Chains     []jumpChain
	Violations []telemetry.Event

	// Hardened-mode defense activity: counter_rejected events grouped by
	// rejecting port, and the quarantine events themselves. RejectPorts
	// is sorted by port name for deterministic rendering.
	RejectPorts []rejectSummary
	Quarantines []telemetry.Event
}

// rejectSummary aggregates one port's bounded-jump admission rejections.
type rejectSummary struct {
	Port    string
	Count   int
	Beacons int // rejected BEACON advances
	Joins   int // rejected JOIN advances
	MaxAdv  int64
	First   sim.Time
	Last    sim.Time
}

// OWDRange returns the min/max measured one-way delay and the sample
// count (all zero when the trace holds no synced events).
func (r *Report) OWDRange() (lo, hi int64, n uint64) {
	if r.OWD.Total() == 0 {
		return 0, 0, 0
	}
	lo, hi = r.OWD.Range()
	return lo, hi, r.OWD.Total()
}

// Analyze digests a trace. g, when non-nil, provides the topology used
// to map ports to their peers for jump-chain reconstruction (ports are
// numbered in link order, matching core.NewNetwork); without it the
// chain section is omitted. window bounds how far apart two jumps may
// be and still be considered cause and effect (default 10 µs).
func Analyze(events []telemetry.Event, g *topo.Graph, window sim.Time) *Report {
	if window <= 0 {
		window = 10 * sim.Microsecond
	}
	r := &Report{
		Events:  len(events),
		OWD:     stats.NewIntHist(),
		Offsets: stats.NewIntHist(),
		PairOff: map[string]*stats.IntHist{},
	}
	if len(events) == 0 {
		return r
	}
	r.Start, r.End = events[0].At, events[len(events)-1].At

	type dwellState struct {
		cur   string
		since sim.Time
	}
	dwell := map[string]map[string]*dwellEntry{}
	ports := map[string]*dwellState{}
	addDwell := func(port, state string, d sim.Time, entries int) {
		m := dwell[port]
		if m == nil {
			m = map[string]*dwellEntry{}
			dwell[port] = m
		}
		e := m[state]
		if e == nil {
			e = &dwellEntry{Port: port, State: state}
			m[state] = e
		}
		e.Total += d
		e.Entries += entries
	}

	var jumps, rejects []telemetry.Event
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindStateChange:
			ps := ports[e.Who]
			if ps == nil {
				// Time before a port's first transition is attributed to
				// its old state, measured from the trace start.
				addDwell(e.Who, stateName(e.V1), e.At-r.Start, 1)
			} else {
				addDwell(e.Who, ps.cur, e.At-ps.since, 1)
			}
			ports[e.Who] = &dwellState{cur: stateName(e.V2), since: e.At}
		case telemetry.KindSynced:
			r.OWD.Add(e.V1)
		case telemetry.KindBeaconRx:
			r.Offsets.Add(e.V1)
			h := r.PairOff[e.Who]
			if h == nil {
				h = stats.NewIntHist()
				r.PairOff[e.Who] = h
			}
			h.Add(e.V1)
		case telemetry.KindCounterJump:
			jumps = append(jumps, e)
		case telemetry.KindBoundViolation:
			r.Violations = append(r.Violations, e)
		case telemetry.KindCounterRejected:
			rejects = append(rejects, e)
		case telemetry.KindPortQuarantined:
			r.Quarantines = append(r.Quarantines, e)
		}
	}
	r.RejectPorts = summarizeRejects(rejects)
	// Close every port's final dwell interval at the trace end.
	for port, ps := range ports {
		addDwell(port, ps.cur, r.End-ps.since, 0)
	}
	portNames := make([]string, 0, len(dwell))
	for p := range dwell {
		portNames = append(portNames, p)
	}
	sort.Strings(portNames)
	for _, p := range portNames {
		states := make([]string, 0, len(dwell[p]))
		for s := range dwell[p] {
			states = append(states, s)
		}
		sort.Strings(states)
		for _, s := range states {
			r.Dwell = append(r.Dwell, *dwell[p][s])
		}
	}

	if g != nil {
		r.Chains = buildChains(jumps, portPeers(*g), window)
	}
	return r
}

// summarizeRejects folds counter_rejected events into per-port
// summaries, sorted by port name.
func summarizeRejects(rejects []telemetry.Event) []rejectSummary {
	if len(rejects) == 0 {
		return nil
	}
	byPort := map[string]*rejectSummary{}
	for _, e := range rejects {
		s := byPort[e.Who]
		if s == nil {
			s = &rejectSummary{Port: e.Who, First: e.At, MaxAdv: e.V1}
			byPort[e.Who] = s
		}
		s.Count++
		if e.Detail == "join" {
			s.Joins++
		} else {
			s.Beacons++
		}
		if e.V1 > s.MaxAdv {
			s.MaxAdv = e.V1
		}
		s.Last = e.At
	}
	out := make([]rejectSummary, 0, len(byPort))
	for _, s := range byPort {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Port < out[b].Port })
	return out
}

// portPeers maps every port name ("s1[2]") to its peer's port name,
// reconstructing internal/core's deterministic numbering: ports are
// created in topology link order, so a device's n-th incident link owns
// its port n.
func portPeers(g topo.Graph) map[string]string {
	next := make([]int, len(g.Nodes))
	m := make(map[string]string, 2*len(g.Links))
	for _, l := range g.Links {
		pa := fmt.Sprintf("%s[%d]", g.Nodes[l.A].Name, next[l.A])
		pb := fmt.Sprintf("%s[%d]", g.Nodes[l.B].Name, next[l.B])
		next[l.A]++
		next[l.B]++
		m[pa] = pb
		m[pb] = pa
	}
	return m
}

// deviceOf strips the port index: "s1[2]" -> "s1".
func deviceOf(who string) string {
	if i := strings.IndexByte(who, '['); i >= 0 {
		return who[:i]
	}
	return who
}

// buildChains links each counter jump to the most recent jump on the
// peer device within the window, then reports maximal chains longest
// first. A jump at device X caused by a beacon from Y implies Y's
// counter moved first: that is the causal edge.
func buildChains(jumps []telemetry.Event, peers map[string]string, window sim.Time) []jumpChain {
	n := len(jumps)
	if n == 0 {
		return nil
	}
	prev := make([]int, n)
	length := make([]int, n)
	lastByDev := map[string]int{}
	for k, j := range jumps {
		prev[k] = -1
		length[k] = 1
		peer, ok := peers[j.Who]
		if ok {
			if m, seen := lastByDev[deviceOf(peer)]; seen && j.At-jumps[m].At <= window {
				prev[k] = m
				length[k] = length[m] + 1
			}
		}
		lastByDev[deviceOf(j.Who)] = k
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if length[order[a]] != length[order[b]] {
			return length[order[a]] > length[order[b]]
		}
		return jumps[order[a]].Seq < jumps[order[b]].Seq
	})
	used := make([]bool, n)
	var out []jumpChain
	for _, end := range order {
		if used[end] || length[end] < 2 {
			continue
		}
		var c jumpChain
		for k := end; k >= 0; k = prev[k] {
			used[k] = true
			c.Ports = append(c.Ports, jumps[k].Who)
			c.Times = append(c.Times, jumps[k].At)
			c.Sizes = append(c.Sizes, jumps[k].V1)
		}
		// Walking prev yields latest-first; flip to chronological.
		for l, r := 0, len(c.Ports)-1; l < r; l, r = l+1, r-1 {
			c.Ports[l], c.Ports[r] = c.Ports[r], c.Ports[l]
			c.Times[l], c.Times[r] = c.Times[r], c.Times[l]
			c.Sizes[l], c.Sizes[r] = c.Sizes[r], c.Sizes[l]
		}
		out = append(out, c)
	}
	return out
}

// WriteText renders the report as deterministic plain-text tables.
// topChains bounds the causality-chain section (default 5).
func (r *Report) WriteText(w io.Writer, topChains int) error {
	if topChains <= 0 {
		topChains = 5
	}
	var b strings.Builder

	fmt.Fprintf(&b, "== Trace window\n%d events spanning %v .. %v\n", r.Events, r.Start, r.End)

	b.WriteString("\n== Port state dwell times\n")
	if len(r.Dwell) == 0 {
		b.WriteString("no state_change events in trace\n")
	} else {
		span := float64(r.End - r.Start)
		fmt.Fprintf(&b, "%-10s %-8s %8s %14s %8s\n", "port", "state", "entries", "total", "share")
		for _, d := range r.Dwell {
			share := 0.0
			if span > 0 {
				share = 100 * float64(d.Total) / span
			}
			fmt.Fprintf(&b, "%-10s %-8s %8d %14v %7.2f%%\n", d.Port, d.State, d.Entries, d.Total, share)
		}
	}

	b.WriteString("\n== INIT one-way delays (port cycles)\n")
	if lo, hi, n := r.OWDRange(); n == 0 {
		b.WriteString("no synced events in trace\n")
	} else {
		fmt.Fprintf(&b, "n=%d range %d..%d\n", n, lo, hi)
		values, probs := r.OWD.PDF()
		for i, v := range values {
			fmt.Fprintf(&b, "%6d: %.4f\n", v, probs[i])
		}
	}

	b.WriteString("\n== Beacon offset distribution, ticks (Figure 6c style)\n")
	if r.Offsets.Total() == 0 {
		b.WriteString("no beacon_rx events in trace (record with firehose kinds enabled)\n")
	} else {
		lo, hi := r.Offsets.Range()
		fmt.Fprintf(&b, "n=%d range %d..%d\n", r.Offsets.Total(), lo, hi)
		values, probs := r.Offsets.PDF()
		for i, v := range values {
			fmt.Fprintf(&b, "%6d: %.4f\n", v, probs[i])
		}
		b.WriteString("\nper receiving port:\n")
		fmt.Fprintf(&b, "%-10s %10s %6s %6s\n", "port", "samples", "min", "max")
		names := make([]string, 0, len(r.PairOff))
		for p := range r.PairOff {
			names = append(names, p)
		}
		sort.Strings(names)
		for _, p := range names {
			h := r.PairOff[p]
			lo, hi := h.Range()
			fmt.Fprintf(&b, "%-10s %10d %6d %6d\n", p, h.Total(), lo, hi)
		}
	}

	fmt.Fprintf(&b, "\n== Counter-jump causality chains\n")
	if len(r.Chains) == 0 {
		b.WriteString("none (needs -topo for peer mapping, counter_jump events in trace, and multi-hop propagation)\n")
	} else {
		shown := r.Chains
		if len(shown) > topChains {
			shown = shown[:topChains]
		}
		for _, c := range shown {
			fmt.Fprintf(&b, "len %d: ", len(c.Ports))
			const maxShown = 8
			start := 0
			if len(c.Ports) > maxShown {
				start = len(c.Ports) - maxShown
				fmt.Fprintf(&b, "(%d earlier) ... ", start)
			}
			for k := start; k < len(c.Ports); k++ {
				if k > start {
					b.WriteString(" -> ")
				}
				fmt.Fprintf(&b, "%s+%d@%v", c.Ports[k], c.Sizes[k], c.Times[k])
			}
			b.WriteByte('\n')
		}
		if len(r.Chains) > topChains {
			fmt.Fprintf(&b, "(%d more chains)\n", len(r.Chains)-topChains)
		}
	}

	// The hardened-mode section appears only when the trace shows defense
	// activity, so reports from plain-mode runs are byte-identical to
	// earlier versions.
	if len(r.RejectPorts) > 0 || len(r.Quarantines) > 0 {
		b.WriteString("\n== Quarantine / rejection causality (hardened mode)\n")
		if len(r.RejectPorts) > 0 {
			fmt.Fprintf(&b, "%-10s %8s %8s %8s %10s %14s %14s\n",
				"port", "rejects", "beacons", "joins", "max_adv", "first", "last")
			for _, s := range r.RejectPorts {
				fmt.Fprintf(&b, "%-10s %8d %8d %8d %10d %14v %14v\n",
					s.Port, s.Count, s.Beacons, s.Joins, s.MaxAdv, s.First, s.Last)
			}
		}
		for _, q := range r.Quarantines {
			fmt.Fprintf(&b, "%v %s quarantined after %d rejections (owd=%d)\n",
				q.At, q.Who, q.V1, q.V2)
		}
	}

	b.WriteString("\n== Bound violations\n")
	if len(r.Violations) == 0 {
		b.WriteString("none\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "%v %s offset=%d bound=%d %s\n", v.At, v.Who, v.V1, v.V2, v.Detail)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
