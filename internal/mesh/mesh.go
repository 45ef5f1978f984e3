// Package mesh models the CC-NUMA interconnect of the paper's simulated
// machine: a 2-D mesh with dimension-order (XY) routing, a configurable link
// bandwidth (the paper uses 1.6 CPU cycles per byte) and per-link FIFO
// contention. Messages occupy each link on their path for size-proportional
// time; a later message queues behind an earlier one on a shared link.
//
// Because the simulation kernel delivers globally visible operations in
// nondecreasing virtual time, modelling a link as a busy-until timestamp is
// an exact FIFO queue.
package mesh

import (
	"fmt"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

// Time aliases the kernel's virtual time.
type Time = memsys.Time

// Net is the interconnect between the machine's nodes: a routing topology
// (mesh by default — the paper's network) plus link bandwidth, per-hop
// latency, and per-link FIFO contention.
type Net struct {
	p    memsys.Params
	topo Topology

	// busy[from*n+to] is the time at which link from→to becomes free; for
	// a shared-medium topology (bus) busBusy serializes every transfer.
	busy    []Time
	busBusy Time

	// Stats, harvested by PublishMetrics at the end of a run.
	msgs     uint64
	bytes    uint64
	queueing Time     // total cycles spent waiting for busy links
	occupied Time     // total link-occupancy cycles injected
	hops     []uint64 // hops[h]: messages routed over h hops
}

// HopBuckets are the inclusive upper bounds of the mesh.hops histogram.
// The tail covers many-core meshes: a 32×32 mesh routes up to 62 hops.
var HopBuckets = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// PublishMetrics harvests the interconnect's aggregate stats into s
// (implements metrics.Publisher). mesh.occupied_cycles over the product of
// link count and run length is the network's link utilization.
func (n *Net) PublishMetrics(s *metrics.Snapshot) {
	s.Add("mesh.msgs", n.msgs)
	s.Add("mesh.bytes", n.bytes)
	s.Add("mesh.queue_cycles", uint64(n.queueing))
	s.Add("mesh.occupied_cycles", uint64(n.occupied))
	for hops, c := range n.hops {
		s.ObserveN("mesh.hops", HopBuckets, uint64(hops), c)
	}
}

// New builds the interconnect described by p.
func New(p memsys.Params) *Net {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	topo, err := NewTopology(p.Topology, p.MeshW, p.MeshH)
	if err != nil {
		panic(err)
	}
	n := topo.Nodes()
	// A route visits each node at most once, so it has fewer than n hops.
	return &Net{p: p, topo: topo, busy: make([]Time, n*n), hops: make([]uint64, n)}
}

// Topology returns the routing topology in use.
func (n *Net) Topology() Topology { return n.topo }

// Hops returns the routing hop count between two nodes.
func (n *Net) Hops(src, dst int) int { return n.topo.Hops(src, dst) }

// Path returns the sequence of nodes visited from src to dst, inclusive of
// both endpoints. It allocates; the transfer hot path (Send) routes via
// NextHop instead.
func (n *Net) Path(src, dst int) []int { return Path(n.topo, src, dst) }

// Send injects a message of the given size from src to dst at time start and
// returns its arrival time, modelling store-and-forward transfer with
// per-link FIFO contention. A message to the local node arrives immediately.
func (n *Net) Send(src, dst, bytes int, start Time) Time {
	if src == dst {
		return start
	}
	n.msgs++
	n.bytes += uint64(bytes)
	transfer := n.p.TransferCycles(bytes)
	t := start
	if n.topo.Shared() {
		// Bus: one hop, all transfers serialize on the medium.
		begin := t + n.p.HopLatency
		if n.busBusy > begin {
			n.queueing += n.busBusy - begin
			begin = n.busBusy
		}
		depart := begin + transfer
		n.busBusy = depart
		n.occupied += transfer
		n.hops[1]++
		return depart
	}
	// Step hop by hop via NextHop: no path slice is ever materialized.
	nodes := n.topo.Nodes()
	hops := 0
	for cur := src; cur != dst; hops++ {
		next := n.topo.NextHop(cur, dst)
		arrive := t + n.p.HopLatency
		idx := cur*nodes + next
		begin := arrive
		if b := n.busy[idx]; b > begin {
			n.queueing += b - begin
			begin = b
		}
		depart := begin + transfer
		n.busy[idx] = depart
		n.occupied += transfer
		t = depart
		cur = next
	}
	n.hops[hops]++
	return t
}

// UncontendedLatency returns the latency a message would see on an idle
// network — the z-machine's propagation delay L, determined only by the
// link bandwidth (paper §2.2: no contention in the z-machine).
func (n *Net) UncontendedLatency(src, dst, bytes int) Time {
	if src == dst {
		return 0
	}
	transfer := n.p.TransferCycles(bytes)
	return Time(n.Hops(src, dst)) * (n.p.HopLatency + transfer)
}

// MaxUncontendedLatency returns the worst-case uncontended latency from src
// to any node — the propagation bound used by the z-machine's availability
// counter when the oracle ships a datum to every consumer.
func (n *Net) MaxUncontendedLatency(src, bytes int) Time {
	var max Time
	for d := 0; d < n.topo.Nodes(); d++ {
		if l := n.UncontendedLatency(src, d, bytes); l > max {
			max = l
		}
	}
	return max
}

// Messages returns the number of messages injected.
func (n *Net) Messages() uint64 { return n.msgs }

// Bytes returns the total payload bytes injected.
func (n *Net) Bytes() uint64 { return n.bytes }

// QueueingCycles returns the total contention (waiting-for-link) cycles.
func (n *Net) QueueingCycles() Time { return n.queueing }

// OccupiedCycles returns total link-occupancy cycles injected.
func (n *Net) OccupiedCycles() Time { return n.occupied }

func (n *Net) String() string {
	return fmt.Sprintf("%s (%d nodes): msgs=%d bytes=%d queueing=%d",
		n.topo.Name(), n.topo.Nodes(), n.msgs, n.bytes, n.queueing)
}
