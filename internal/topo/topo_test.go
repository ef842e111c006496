package topo

import (
	"testing"
	"testing/quick"
)

func TestPaperTreeShape(t *testing.T) {
	g := PaperTree()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(g.Nodes))
	}
	if len(g.Links) != 11 {
		t.Fatalf("links = %d, want 11 (tree)", len(g.Links))
	}
	if got := len(g.HostIDs()); got != 8 {
		t.Fatalf("hosts = %d, want 8 (S4-S11)", got)
	}
	if got := len(g.switchIDs()); got != 4 {
		t.Fatalf("switches = %d, want 4 (S0-S3)", got)
	}
	// "the maximum number of hops between any two leaf servers was four"
	if d := g.HostDiameter(); d != 4 {
		t.Fatalf("host diameter = %d, want 4", d)
	}
}

func TestPaperTreePlotPairsAdjacent(t *testing.T) {
	// Figure 6 plots offsets of s1-s4, s1-s5, s2-s7, s2-s8, s3-s9,
	// s3-s10, s3-s11 and sX-s0: all must be directly connected.
	g := PaperTree()
	hops := g.Hops()
	pairs := [][2]string{
		{"s1", "s4"}, {"s1", "s5"}, {"s2", "s7"}, {"s2", "s8"},
		{"s3", "s9"}, {"s3", "s10"}, {"s3", "s11"},
		{"s1", "s0"}, {"s2", "s0"}, {"s3", "s0"},
	}
	for _, p := range pairs {
		a, ok1 := g.ByName(p[0])
		b, ok2 := g.ByName(p[1])
		if !ok1 || !ok2 {
			t.Fatalf("missing node in pair %v", p)
		}
		if hops[a.ID][b.ID] != 1 {
			t.Fatalf("%s-%s distance %d, want 1", p[0], p[1], hops[a.ID][b.ID])
		}
	}
}

func TestStarShape(t *testing.T) {
	g := Star(8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.HostDiameter(); d != 2 {
		t.Fatalf("star host diameter = %d, want 2 (every PTP path is 2 hops)", d)
	}
	if len(g.HostIDs()) != 9 { // timeserver + 8
		t.Fatalf("hosts = %d, want 9", len(g.HostIDs()))
	}
}

func TestChainDiameter(t *testing.T) {
	for hops := 1; hops <= 8; hops++ {
		g := Chain(hops)
		if err := g.Validate(); err != nil {
			t.Fatalf("chain(%d): %v", hops, err)
		}
		if d := g.HostDiameter(); d != hops {
			t.Fatalf("chain(%d) diameter = %d", hops, d)
		}
	}
}

func TestLinkBetween(t *testing.T) {
	g := Chain(3) // h0 - sw1 - sw2 - h1
	for _, ends := range [][2]string{{"sw1", "sw2"}, {"sw2", "sw1"}} {
		if i, err := g.LinkBetween(ends[0], ends[1]); err != nil || i != 1 {
			t.Fatalf("LinkBetween(%s, %s) = %d, %v; want link 1", ends[0], ends[1], i, err)
		}
	}
	if _, err := g.LinkBetween("h0", "nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := g.LinkBetween("h0", "h1"); err == nil {
		t.Fatal("non-adjacent pair accepted")
	}
}

func TestPairShape(t *testing.T) {
	g := Pair()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.HostDiameter() != 1 {
		t.Fatal("pair diameter != 1")
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{2, 4} {
		g := FatTree(k)
		if err := g.Validate(); err != nil {
			t.Fatalf("fat-tree(%d): %v", k, err)
		}
		wantHosts := k * k * k / 4
		if got := len(g.HostIDs()); got != wantHosts {
			t.Fatalf("fat-tree(%d) hosts = %d, want %d", k, got, wantHosts)
		}
		wantSwitches := k*k + k*k/4 // k pods * k switches + (k/2)^2 core
		if got := len(g.switchIDs()); got != wantSwitches {
			t.Fatalf("fat-tree(%d) switches = %d, want %d", k, got, wantSwitches)
		}
	}
}

func TestFatTreeSixHopDiameter(t *testing.T) {
	// The paper: six hops "is the longest distance in a Fat-tree".
	g := FatTree(4)
	if d := g.HostDiameter(); d != 6 {
		t.Fatalf("fat-tree(4) host diameter = %d, want 6", d)
	}
}

func TestFatTreeRejectsOddArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd arity accepted")
		}
	}()
	FatTree(3)
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	cases := []Graph{
		{Nodes: []Node{{ID: 1, Name: "a"}}}, // non-dense ID
		{Nodes: []Node{{ID: 0, Name: "a"}, {ID: 1, Name: "a"}}, Links: []Link{{A: 0, B: 1, LengthM: 1}}},                     // dup name
		{Nodes: []Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}}, Links: []Link{{A: 0, B: 5, LengthM: 1}}},                     // bad link
		{Nodes: []Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}}, Links: []Link{{A: 0, B: 0, LengthM: 1}}},                     // self link
		{Nodes: []Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}}, Links: []Link{{A: 0, B: 1, LengthM: 0}}},                     // zero length
		{Nodes: []Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"}}, Links: []Link{{A: 0, B: 1, LengthM: 1}}}, // disconnected
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: invalid graph accepted", i)
		}
	}
}

func TestNextHopRoutesConverge(t *testing.T) {
	for _, g := range []Graph{PaperTree(), Star(5), Chain(6), FatTree(4)} {
		table := g.NextHop()
		hosts := g.HostIDs()
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				// Walk the route; must reach dst within Diameter hops.
				cur := src
				for steps := 0; cur != dst; steps++ {
					if steps > g.Diameter() {
						t.Fatalf("route %d->%d did not converge", src, dst)
					}
					li := table[cur][dst]
					if li < 0 {
						t.Fatalf("no next hop from %d toward %d", cur, dst)
					}
					l := g.Links[li]
					if l.A == cur {
						cur = l.B
					} else if l.B == cur {
						cur = l.A
					} else {
						t.Fatalf("next-hop link %d not incident to %d", li, cur)
					}
				}
			}
		}
	}
}

func TestNextHopIsShortest(t *testing.T) {
	g := FatTree(4)
	table := g.NextHop()
	hops := g.Hops()
	hosts := g.HostIDs()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			cur, steps := src, 0
			for cur != dst {
				l := g.Links[table[cur][dst]]
				if l.A == cur {
					cur = l.B
				} else {
					cur = l.A
				}
				steps++
			}
			if steps != hops[src][dst] {
				t.Fatalf("route %d->%d took %d hops, shortest is %d", src, dst, steps, hops[src][dst])
			}
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	g := PaperTree()
	hops := g.Hops()
	for i := range g.Nodes {
		for j := range g.Nodes {
			if hops[i][j] != hops[j][i] {
				t.Fatalf("hops not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// Property: chains of any length validate and have the expected diameter.
func TestChainProperty(t *testing.T) {
	f := func(h uint8) bool {
		hops := int(h%16) + 1
		g := Chain(hops)
		return g.Validate() == nil && g.HostDiameter() == hops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentOf(t *testing.T) {
	g := PaperTree()
	if got := len(g.componentOf(0)); got != 12 {
		t.Fatalf("component size %d, want 12", got)
	}
}

func TestByName(t *testing.T) {
	g := PaperTree()
	if n, ok := g.ByName("s7"); !ok || n.Kind != Host {
		t.Fatal("s7 lookup failed")
	}
	if _, ok := g.ByName("nope"); ok {
		t.Fatal("phantom node found")
	}
}

// switchIDs returns the IDs of all switch nodes.
func (g *Graph) switchIDs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}
