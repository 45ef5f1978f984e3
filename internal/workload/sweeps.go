package workload

import (
	"fmt"

	"zsim/internal/apps/cholesky"
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Time aliases virtual time.
type Time = memsys.Time

// The sweeps below regenerate the paper's §6 architectural-implications
// analysis and §7 open issues as concrete ablation experiments. Each
// exported sweep resolves its plan alone; Regenerate resolves the same
// plans together with the rest of the index.

// StoreBufferSweep varies the store buffer depth (§6: "write stall time is
// dependent on two parameters: the store buffer size and the relative speed
// of the network").
func StoreBufferSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) (*stats.Table, error) {
	return storeBufferPlan(app, scale, kind, base, sizes).run()
}

func storeBufferPlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, len(sizes), func(p *memsys.Params, i int) { p.StoreBufEntries = sizes[i] }),
		table(fmt.Sprintf("Store buffer sweep: %s on %s", app, kind),
			[]string{"entries", "exec-cycles", "write-stall", "buf-flush", "overhead%"},
			labels("%d", sizes), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %.2f",
					r.ExecTime, r.TotalWriteStall(), r.TotalBufferFlush(), r.OverheadPct())
			})}
}

// NetworkSweep varies the link bandwidth (§6: improving the network speed
// relative to the processor lowers write stall).
func NetworkSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, cyclesPerByte []float64) (*stats.Table, error) {
	return networkPlan(app, scale, kind, base, cyclesPerByte).run()
}

func networkPlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, cyclesPerByte []float64) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, len(cyclesPerByte), func(p *memsys.Params, i int) { p.LinkCyclesPerByte = cyclesPerByte[i] }),
		table(fmt.Sprintf("Network speed sweep: %s on %s", app, kind),
			[]string{"cyc/byte", "exec-cycles", "read-stall", "write-stall", "buf-flush", "overhead%"},
			labels("%.2f", cyclesPerByte), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %d %.2f",
					r.ExecTime, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(), r.OverheadPct())
			})}
}

// ThresholdSweep varies RCcomp's competitive self-invalidation threshold.
func ThresholdSweep(app string, scale Scale, base memsys.Params, thresholds []int) (*stats.Table, error) {
	return thresholdPlan(app, scale, base, thresholds).run()
}

func thresholdPlan(app string, scale Scale, base memsys.Params, thresholds []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, memsys.KindRCComp, base, len(thresholds), func(p *memsys.Params, i int) { p.CompThreshold = thresholds[i] }),
		table(fmt.Sprintf("Competitive threshold sweep: %s on rccomp", app),
			[]string{"threshold", "exec-cycles", "read-stall", "write-stall", "buf-flush", "self-inval", "overhead%"},
			labels("%d", thresholds), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %d %d %.2f",
					r.ExecTime, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(), r.Counters.SelfInvalidations, r.OverheadPct())
			})}
}

// FiniteCacheSweep explores the §7 open issue: the overhead added by finite
// caches (capacity and conflict misses) versus the paper's infinite-cache
// assumption.
func FiniteCacheSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, lines []int) (*stats.Table, error) {
	return finiteCachePlan(app, scale, kind, base, lines).run()
}

func finiteCachePlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, lines []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, 1+len(lines), func(p *memsys.Params, i int) {
			if i > 0 {
				p.FiniteCache = true
				p.CacheLines = lines[i-1]
				p.CacheAssoc = 4
			}
		}),
		table(fmt.Sprintf("Finite cache sweep: %s on %s (4-way LRU)", app, kind),
			[]string{"cache-lines", "exec-cycles", "read-miss", "cold-miss", "read-stall", "overhead%"},
			append([]string{"inf"}, labels("%d", lines)...), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %d %.2f",
					r.ExecTime, r.Counters.ReadMisses, r.Counters.ColdMisses, r.TotalReadStall(), r.OverheadPct())
			})}
}

// PrefetchSweep explores the §6 suggestion that cold-miss-dominated
// applications (Cholesky) benefit from prefetching.
func PrefetchSweep(app string, scale Scale, base memsys.Params, degrees []int) (*stats.Table, error) {
	return prefetchPlan(app, scale, base, degrees).run()
}

func prefetchPlan(app string, scale Scale, base memsys.Params, degrees []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, memsys.KindRCInv, base, len(degrees), func(p *memsys.Params, i int) { p.PrefetchDegree = degrees[i] }),
		table(fmt.Sprintf("Sequential prefetch sweep: %s on rcinv", app),
			[]string{"degree", "exec-cycles", "read-stall", "prefetches", "overhead%"},
			labels("%d", degrees), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %.2f",
					r.ExecTime, r.TotalReadStall(), r.Counters.Prefetches, r.OverheadPct())
			})}
}

// SCvsRC contrasts the sequentially consistent baseline (what most studies
// benchmark against) with release consistency, per application.
func SCvsRC(scale Scale, p memsys.Params) (*stats.Table, error) {
	return scVsRCPlan(scale, p).run()
}

func scVsRCPlan(scale Scale, p memsys.Params) plan[*stats.Table] {
	return plan[*stats.Table]{across(AppNames(), []memsys.Kind{memsys.KindSCInv, memsys.KindRCInv}, scale, p), table(
		"SCinv vs RCinv (write stall bought back by release consistency)",
		[]string{"app", "sc-exec", "rc-exec", "sc-write-stall", "rc-write-stall", "speedup"},
		AppNames(), func(_ int, g []*stats.Result) []string {
			sc, rc := g[0], g[1]
			return cols("%d %d %d %d %.3f",
				sc.ExecTime, rc.ExecTime, sc.TotalWriteStall(), rc.TotalWriteStall(), float64(sc.ExecTime)/float64(rc.ExecTime))
		})}
}

// MultithreadSweep explores the §7 open issue of multithreading as a
// latency-tolerance mechanism: the machine keeps a fixed set of NUMA nodes
// while each node runs 1, 2, 4, ... hardware threads, so the same total
// work (strong scaling) is attacked by more execution streams whose memory
// stalls overlap each other's computation.
func MultithreadSweep(app string, scale Scale, kind memsys.Kind, nodes int, threads []int) (*stats.Table, error) {
	return multithreadPlan(app, scale, kind, nodes, threads).run()
}

func multithreadPlan(app string, scale Scale, kind memsys.Kind, nodes int, threads []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, memsys.Params{}, len(threads), func(p *memsys.Params, i int) {
			*p = memsys.DefaultMT(nodes*threads[i], threads[i])
		}),
		table(fmt.Sprintf("Multithreading sweep: %s on %s, %d nodes", app, kind, nodes),
			[]string{"threads/node", "streams", "exec-cycles", "read-stall", "core-wait", "overhead%"},
			labels("%d", threads), func(i int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %d %.2f",
					nodes*threads[i], r.ExecTime, r.TotalReadStall(), r.TotalCoreWait(), r.OverheadPct())
			})}
}

// ScalabilitySweep runs an application across machine sizes on one memory
// system, reporting execution time and speedup over the single-processor
// run. The paper's framework descends from the authors' scalability studies
// (SIGMETRICS'94 / JPDC'94); this sweep recreates that view.
func ScalabilitySweep(app string, scale Scale, kind memsys.Kind, procs []int) (*stats.Table, error) {
	return scalabilityPlan(app, scale, kind, procs).run()
}

func scalabilityPlan(app string, scale Scale, kind memsys.Kind, procs []int) plan[*stats.Table] {
	cells := vary(app, scale, kind, memsys.Params{}, len(procs), func(p *memsys.Params, i int) { *p = memsys.Default(procs[i]) })
	return plan[*stats.Table]{cells, func(rs []*stats.Result) *stats.Table {
		var base Time
		return table(fmt.Sprintf("Scalability: %s on %s", app, kind),
			[]string{"procs", "exec-cycles", "speedup", "overhead%", "sync-wait"},
			labels("%d", procs), func(_ int, g []*stats.Result) []string {
				r := g[0]
				if base == 0 {
					base = r.ExecTime
				}
				return cols("%d %.2f %.2f %d",
					r.ExecTime, float64(base)/float64(r.ExecTime), r.OverheadPct(), r.TotalSyncWait())
			})(rs)
	}}
}

// TopologySweep runs an application on one memory system across
// interconnect topologies (SPASM "provides a choice of network topologies";
// the paper's evaluation uses the mesh). The z-machine column shows how the
// topology moves the inherent-communication bound itself.
func TopologySweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, topologies []string) (*stats.Table, error) {
	return topologyPlan(app, scale, kind, base, topologies).run()
}

func topologyPlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, topologies []string) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, len(topologies), func(p *memsys.Params, i int) { p.Topology = topologies[i] }),
		table(fmt.Sprintf("Topology sweep: %s on %s", app, kind),
			[]string{"topology", "exec-cycles", "read-stall", "net-queueing-visible", "overhead%"},
			topologies, func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %.2f",
					r.ExecTime, r.TotalReadStall(), r.TotalWriteStall()+r.TotalBufferFlush(), r.OverheadPct())
			})}
}

// RCSyncComparison regenerates the §6 proposal experiment (E15): RCinv
// versus RCsync — identical hardware, but synchronization carries the
// data-flow guarantee so releases never stall. The paper predicts the
// buffer-flush component vanishes.
func RCSyncComparison(scale Scale, p memsys.Params) (*stats.Table, error) {
	return rcSyncPlan(scale, p).run()
}

func rcSyncPlan(scale Scale, p memsys.Params) plan[*stats.Table] {
	return plan[*stats.Table]{across(AppNames(), []memsys.Kind{memsys.KindRCInv, memsys.KindRCSync}, scale, p), table(
		"RCinv vs RCsync (paper §6: decouple data flow from synchronization)",
		[]string{"app", "rcinv-exec", "rcsync-exec", "rcinv-flush", "rcsync-flush", "speedup"},
		AppNames(), func(_ int, g []*stats.Result) []string {
			inv, sy := g[0], g[1]
			return cols("%d %d %d %d %.3f",
				inv.ExecTime, sy.ExecTime, inv.TotalBufferFlush(), sy.TotalBufferFlush(), float64(inv.ExecTime)/float64(sy.ExecTime))
		})}
}

// OrderingSweep contrasts Cholesky elimination orderings: the natural
// (band) ordering versus nested dissection. The ordering reshapes the
// whole system: fill, supernode structure, task parallelism, and hence the
// communication the memory systems must carry.
func OrderingSweep(scale Scale, kind memsys.Kind, p memsys.Params) (*stats.Table, error) {
	return orderingPlan(scale, kind, p).run()
}

func orderingPlan(scale Scale, kind memsys.Kind, p memsys.Params) plan[*stats.Table] {
	orderings := []string{"natural", "nd"}
	natural := cell{app: "cholesky", scale: scale, kind: kind, p: p}
	nd := natural
	nd.ordering = "nd"
	return plan[*stats.Table]{[]cell{natural, nd}, table(
		fmt.Sprintf("Elimination ordering sweep: cholesky on %s", kind),
		[]string{"ordering", "nnz(L)", "supernodes", "exec-cycles", "read-stall", "overhead%"},
		orderings, func(i int, g []*stats.Result) []string {
			r, sym := g[0], cholesky.New(choleskyConfig(scale, orderings[i])).Sym()
			return cols("%d %d %d %d %.2f",
				sym.NNZ(), sym.NS(), r.ExecTime, r.TotalReadStall(), r.OverheadPct())
		})}
}

// DirPointerSweep varies the directory's sharer-pointer budget (Dir-i
// versus the paper's full-map assumption) — extension E18. Widely shared
// data (Barnes-Hut's tree and bodies) suffers pointer thrashing when the
// budget is small.
func DirPointerSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, pointers []int) (*stats.Table, error) {
	return dirPointerPlan(app, scale, kind, base, pointers).run()
}

func dirPointerPlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, pointers []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, 1+len(pointers), func(p *memsys.Params, i int) {
			if i > 0 {
				p.DirPointers = pointers[i-1]
			}
		}),
		table(fmt.Sprintf("Directory pointer sweep: %s on %s", app, kind),
			[]string{"pointers", "exec-cycles", "read-miss", "ptr-evictions", "overhead%"},
			append([]string{"full-map"}, labels("%d", pointers)...), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %.2f",
					r.ExecTime, r.Counters.ReadMisses, r.Counters.PointerEvictions, r.OverheadPct())
			})}
}

// LineSizeSweep varies the coherence unit of the real memory systems. The
// z-machine fixes its unit at one word precisely so that "the only
// communication that occurs is due to true sharing" (paper §3); sweeping
// the real systems' line size exposes the false-sharing cost of bigger
// lines against their spatial-locality benefit.
func LineSizeSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) (*stats.Table, error) {
	return lineSizePlan(app, scale, kind, base, sizes).run()
}

func lineSizePlan(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) plan[*stats.Table] {
	return plan[*stats.Table]{
		vary(app, scale, kind, base, len(sizes), func(p *memsys.Params, i int) { p.LineSize = sizes[i] }),
		table(fmt.Sprintf("Line size sweep: %s on %s", app, kind),
			[]string{"line-bytes", "exec-cycles", "read-miss", "invalidations", "overhead%"},
			labels("%d", sizes), func(_ int, g []*stats.Result) []string {
				r := g[0]
				return cols("%d %d %d %.2f",
					r.ExecTime, r.Counters.ReadMisses, r.Counters.Invalidations, r.OverheadPct())
			})}
}

// OracleSweep contrasts the z-machine's two oracle models: the paper's §3
// simulation (broadcast + per-block counter, worst-case propagation) and
// its §2.2 definition (the producer ships to each consumer, per-consumer
// latency). The perfect oracle is the tighter lower bound; the gap shows
// how much the broadcast approximation costs.
func OracleSweep(scale Scale, p memsys.Params) (*stats.Table, error) {
	return oraclePlan(scale, p).run()
}

func oraclePlan(scale Scale, p memsys.Params) plan[*stats.Table] {
	oracles := []string{"broadcast", "perfect"}
	var cells []cell
	for _, app := range AppNames() {
		cells = append(cells, vary(app, scale, memsys.KindZMachine, p, len(oracles), func(p *memsys.Params, i int) { p.ZOracle = oracles[i] })...)
	}
	return plan[*stats.Table]{cells, table(
		"z-machine oracle: broadcast counter (§3) vs perfect per-consumer (§2.2)",
		[]string{"app", "broadcast-stall", "perfect-stall", "broadcast-exec", "perfect-exec"},
		AppNames(), func(_ int, g []*stats.Result) []string {
			rb, rp := g[0], g[1]
			return cols("%d %d %d %d",
				rb.TotalReadStall(), rp.TotalReadStall(), rb.ExecTime, rp.ExecTime)
		})}
}
