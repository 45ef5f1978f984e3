package mesh

import (
	"fmt"
	"math/bits"

	"zsim/internal/memsys"
)

// Topology computes routes between nodes. The SPASM framework the paper
// builds on "provides a choice of network topologies"; these are the
// classic ones. All are used through Net, which adds link bandwidth,
// per-hop latency, and contention.
//
// Routing is expressed as a step function (NextHop) plus an arithmetic
// distance (Hops) so the per-message hot path never materializes a path
// slice; Path builds one on top of NextHop for tests and debugging.
type Topology interface {
	// Name identifies the topology.
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// NextHop returns the node adjacent to cur on the route toward dst
	// (dimension-order routing), or cur itself when cur == dst.
	NextHop(cur, dst int) int
	// Hops returns the routing hop count from src to dst, computed
	// arithmetically without walking the route.
	Hops(src, dst int) int
	// Shared reports whether all links are one shared medium (a bus).
	Shared() bool
}

// Path returns the nodes visited from src to dst, inclusive, by walking
// NextHop. Routing itself (Net.Send) steps hop by hop without building
// this slice; Path exists for tests and debugging.
func Path(t Topology, src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		cur = t.NextHop(cur, dst)
		path = append(path, cur)
	}
	return path
}

// NewTopology builds the named topology over n nodes. Supported names:
// "mesh" (2-D mesh, XY routing — the paper's network), "torus" (2-D with
// wrap-around links), "hypercube" (dimension-order routing; n must be a
// power of two), "xbar" (full crossbar: every pair one hop), "bus"
// (single shared medium: every transfer serializes), and "hier" (a
// hierarchical cluster-of-meshes; n must be a multiple of
// memsys.HierClusterNodes).
func NewTopology(name string, w, h int) (Topology, error) {
	n := w * h
	switch name {
	case "", "mesh":
		return &gridTopo{w: w, h: h, wrap: false}, nil
	case "torus":
		return &gridTopo{w: w, h: h, wrap: true}, nil
	case "hypercube":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("mesh: hypercube needs a power-of-two node count, got %d", n)
		}
		return &cubeTopo{n: n}, nil
	case "xbar":
		return &directTopo{n: n, shared: false}, nil
	case "bus":
		return &directTopo{n: n, shared: true}, nil
	case "hier":
		return newHierTopo(n)
	}
	return nil, fmt.Errorf("mesh: unknown topology %q", name)
}

// gridTopo is a 2-D mesh or torus with dimension-order (XY) routing.
type gridTopo struct {
	w, h int
	wrap bool
}

func (g *gridTopo) Name() string {
	if g.wrap {
		return "torus"
	}
	return "mesh"
}

func (g *gridTopo) Nodes() int   { return g.w * g.h }
func (g *gridTopo) Shared() bool { return false }

// step moves coordinate c toward t over size n, using the wrap-around link
// when the torus makes it shorter.
func (g *gridTopo) step(c, t, n int) int {
	if c == t {
		return c
	}
	fwd := (t - c + n) % n
	bwd := (c - t + n) % n
	if g.wrap && bwd < fwd {
		return (c - 1 + n) % n
	}
	if g.wrap && fwd <= bwd {
		return (c + 1) % n
	}
	if t > c {
		return c + 1
	}
	return c - 1
}

// dist is the hop count along one dimension (the shorter way around on a
// torus).
func (g *gridTopo) dist(c, t, n int) int {
	d := t - c
	if d < 0 {
		d = -d
	}
	if g.wrap {
		if w := n - d; w < d {
			return w
		}
	}
	return d
}

func (g *gridTopo) NextHop(cur, dst int) int {
	x, y := cur%g.w, cur/g.w
	dx, dy := dst%g.w, dst/g.w
	if x != dx { // X first (dimension order)
		return y*g.w + g.step(x, dx, g.w)
	}
	if y != dy {
		return g.step(y, dy, g.h)*g.w + x
	}
	return cur
}

func (g *gridTopo) Hops(src, dst int) int {
	return g.dist(src%g.w, dst%g.w, g.w) + g.dist(src/g.w, dst/g.w, g.h)
}

// cubeTopo is a hypercube with dimension-order (bit-fixing) routing.
type cubeTopo struct{ n int }

func (c *cubeTopo) Name() string { return "hypercube" }
func (c *cubeTopo) Nodes() int   { return c.n }
func (c *cubeTopo) Shared() bool { return false }

func (c *cubeTopo) NextHop(cur, dst int) int {
	diff := cur ^ dst
	if diff == 0 {
		return cur
	}
	return cur ^ (diff & -diff) // fix the lowest differing dimension
}

func (c *cubeTopo) Hops(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }

// Dim returns the hypercube dimension.
func (c *cubeTopo) Dim() int { return bits.TrailingZeros(uint(c.n)) }

// hierTopo is a hierarchical cluster-of-meshes: every cluster is the
// paper's 4×4 mesh (memsys.HierClusterNodes nodes), and the clusters are
// tiled in a higher-level cw×ch mesh. Node numbering is cluster-major
// (node = cluster*16 + local, local row-major inside the cluster).
//
// Routing is two-level dimension order: inside the destination cluster an
// ordinary XY route; between clusters the message first drains to the
// source cluster's gateway (local node 0), then steps gateway-to-gateway
// across the cluster-level mesh, then routes XY from the destination
// gateway to the destination node. Inter-cluster links therefore exist
// only between adjacent clusters' gateways, and those links serialize all
// cross-cluster traffic of the pair — the modelled cost of a hierarchy.
type hierTopo struct {
	intra gridTopo // the 4×4 cluster mesh
	inter gridTopo // the cw×ch mesh of clusters
}

func newHierTopo(n int) (*hierTopo, error) {
	cn := memsys.HierClusterNodes
	if n <= 0 || n%cn != 0 {
		return nil, fmt.Errorf("mesh: hier topology needs a positive multiple of %d nodes (4x4 clusters), got %d", cn, n)
	}
	clusters := n / cn
	best := 1
	for d := 1; d*d <= clusters; d++ {
		if clusters%d == 0 {
			best = d
		}
	}
	return &hierTopo{
		intra: gridTopo{w: 4, h: 4},
		inter: gridTopo{w: clusters / best, h: best},
	}, nil
}

func (t *hierTopo) Name() string { return "hier" }
func (t *hierTopo) Nodes() int   { return t.inter.Nodes() * t.intra.Nodes() }
func (t *hierTopo) Shared() bool { return false }

// Clusters returns the cluster-level mesh dimensions.
func (t *hierTopo) Clusters() (w, h int) { return t.inter.w, t.inter.h }

func (t *hierTopo) NextHop(cur, dst int) int {
	cn := t.intra.Nodes()
	cc, cl := cur/cn, cur%cn
	dc, dl := dst/cn, dst%cn
	if cc == dc {
		return cc*cn + t.intra.NextHop(cl, dl)
	}
	if cl != 0 {
		// Drain to the local gateway first.
		return cc*cn + t.intra.NextHop(cl, 0)
	}
	// Gateway-to-gateway step across the cluster mesh.
	return t.inter.NextHop(cc, dc) * cn
}

func (t *hierTopo) Hops(src, dst int) int {
	cn := t.intra.Nodes()
	sc, sl := src/cn, src%cn
	dc, dl := dst/cn, dst%cn
	if sc == dc {
		return t.intra.Hops(sl, dl)
	}
	return t.intra.Hops(sl, 0) + t.inter.Hops(sc, dc) + t.intra.Hops(0, dl)
}

// directTopo connects every pair with one hop: a crossbar when each pair
// has its own link, a bus when all transfers share one medium.
type directTopo struct {
	n      int
	shared bool
}

func (d *directTopo) Name() string {
	if d.shared {
		return "bus"
	}
	return "xbar"
}

func (d *directTopo) Nodes() int   { return d.n }
func (d *directTopo) Shared() bool { return d.shared }

func (d *directTopo) NextHop(cur, dst int) int { return dst }

func (d *directTopo) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}

// sanity verifies a path is well formed (used by New).
func validPath(t Topology, src, dst int) error {
	p := Path(t, src, dst)
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("mesh: %s: bad path %v for %d->%d", t.Name(), p, src, dst)
	}
	return nil
}

var _ = validPath // referenced by tests
