// Package topo describes network topologies as undirected graphs of hosts
// and switches plus cable lengths. Both the DTP network (internal/core)
// and the packet fabric used by the PTP/NTP baselines (internal/fabric)
// are instantiated from these descriptions.
package topo

import (
	"fmt"
)

// Kind distinguishes end hosts (NICs) from switches.
type Kind int

const (
	Host Kind = iota
	Switch
)

func (k Kind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Node is a device in the topology.
type Node struct {
	ID   int
	Name string
	Kind Kind
}

// Link is an undirected cable between two nodes.
type Link struct {
	A, B    int // node IDs
	LengthM float64
}

// Graph is a topology description.
type Graph struct {
	Nodes []Node
	Links []Link
}

// Validate checks node IDs are dense [0,n), names unique, links refer to
// existing distinct nodes, and the graph is connected.
func (g *Graph) Validate() error {
	names := make(map[string]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("topo: node %q has ID %d at index %d", n.Name, n.ID, i)
		}
		if names[n.Name] {
			return fmt.Errorf("topo: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
	}
	for _, l := range g.Links {
		if l.A < 0 || l.A >= len(g.Nodes) || l.B < 0 || l.B >= len(g.Nodes) {
			return fmt.Errorf("topo: link %d-%d out of range", l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: self-link on node %d", l.A)
		}
		if l.LengthM <= 0 {
			return fmt.Errorf("topo: link %d-%d has non-positive length", l.A, l.B)
		}
	}
	if len(g.Nodes) > 0 && len(g.componentOf(0)) != len(g.Nodes) {
		return fmt.Errorf("topo: graph is not connected")
	}
	return nil
}

// adjacency returns, per node, the indices into Links of incident links.
func (g *Graph) adjacency() [][]int {
	adj := make([][]int, len(g.Nodes))
	for i, l := range g.Links {
		adj[l.A] = append(adj[l.A], i)
		adj[l.B] = append(adj[l.B], i)
	}
	return adj
}

// componentOf returns the set of node IDs reachable from start.
func (g *Graph) componentOf(start int) []int {
	adj := g.adjacency()
	seen := make([]bool, len(g.Nodes))
	var out []int
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, li := range adj[v] {
			l := g.Links[li]
			next := l.A
			if next == v {
				next = l.B
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return out
}

// Hops returns the hop-count distance matrix (BFS over links). Hops[i][j]
// is the number of links on a shortest path; -1 if unreachable.
func (g *Graph) Hops() [][]int {
	hops, _ := g.HopsWith(nil, nil)
	return hops
}

// HopsWith returns hop-count distances like Hops, but traverses only
// links for which active[i] is true (active == nil means every link),
// and additionally accumulates per-link weights along the BFS shortest
// path when weights is non-nil. Unreachable pairs have hops -1.
//
// The online auditor (internal/audit) uses it to derive each device
// pair's live 4TD bound: hops over the currently synchronized links,
// weighted by each link's per-hop error contribution, so the bound
// tightens and relaxes as links flap and mixed-speed hops are charged
// their own 4-cycle share.
func (g *Graph) HopsWith(active []bool, weights []int64) (hops [][]int, wsum [][]int64) {
	n := len(g.Nodes)
	adj := g.adjacency()
	hops = make([][]int, n)
	if weights != nil {
		wsum = make([][]int64, n)
	}
	for s := 0; s < n; s++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		var wrow []int64
		if weights != nil {
			wrow = make([]int64, n)
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, li := range adj[v] {
				if active != nil && !active[li] {
					continue
				}
				l := g.Links[li]
				next := l.A
				if next == v {
					next = l.B
				}
				if d[next] < 0 {
					d[next] = d[v] + 1
					if wrow != nil {
						wrow[next] = wrow[v] + weights[li]
					}
					queue = append(queue, next)
				}
			}
		}
		hops[s] = d
		if wsum != nil {
			wsum[s] = wrow
		}
	}
	return hops, wsum
}

// Diameter returns the longest shortest-path hop count between any two
// nodes — the D in the paper's 4TD precision bound.
func (g *Graph) Diameter() int {
	max := 0
	for _, row := range g.Hops() {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// HostDiameter returns the longest shortest-path hop count between any
// two *hosts* — the distance that matters for end-to-end precision.
func (g *Graph) HostDiameter() int {
	hops := g.Hops()
	max := 0
	for i, ni := range g.Nodes {
		if ni.Kind != Host {
			continue
		}
		for j, nj := range g.Nodes {
			if nj.Kind != Host || i == j {
				continue
			}
			if d := hops[i][j]; d > max {
				max = d
			}
		}
	}
	return max
}

// NextHop computes static shortest-path routing: NextHop[src][dst] is the
// link index to take from src toward dst (-1 for src == dst). Ties are
// broken deterministically by link index.
func (g *Graph) NextHop() [][]int {
	n := len(g.Nodes)
	adj := g.adjacency()
	table := make([][]int, n)
	for dst := 0; dst < n; dst++ {
		// BFS backwards from dst; first-discovered parent link wins.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		via := make([]int, n)
		for i := range via {
			via[i] = -1
		}
		dist[dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, li := range adj[v] {
				l := g.Links[li]
				next := l.A
				if next == v {
					next = l.B
				}
				if dist[next] < 0 {
					dist[next] = dist[v] + 1
					via[next] = li
					queue = append(queue, next)
				}
			}
		}
		for src := 0; src < n; src++ {
			if table[src] == nil {
				table[src] = make([]int, n)
			}
			table[src][dst] = via[src]
		}
	}
	return table
}

// HostIDs returns the IDs of all host nodes.
func (g *Graph) HostIDs() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
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

// LinkBetween returns the index into Links of the cable between two
// named adjacent devices, in either order.
func (g *Graph) LinkBetween(a, b string) (int, error) {
	na, ok := g.ByName(a)
	if !ok {
		return 0, fmt.Errorf("topo: unknown device %q", a)
	}
	nb, ok := g.ByName(b)
	if !ok {
		return 0, fmt.Errorf("topo: unknown device %q", b)
	}
	for i, l := range g.Links {
		if (l.A == na.ID && l.B == nb.ID) || (l.A == nb.ID && l.B == na.ID) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("topo: no cable between %s and %s", a, b)
}

// ByName returns the node with the given name.
func (g *Graph) ByName(name string) (Node, bool) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}
