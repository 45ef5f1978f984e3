package workload

import (
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Artifact is a renderable experiment result (a stats.Table or
// stats.Figure).
type Artifact interface {
	Render() string
	Markdown() string
}

// Experiment is one entry of DESIGN.md's per-experiment index: a paper
// artifact (figure, table, or claim) with the code that regenerates it.
type Experiment struct {
	ID    string // E1..E20 or S1..S4, matching DESIGN.md
	Title string
	plan  func(scale Scale, p memsys.Params) plan[Artifact]
}

// Run regenerates the experiment on a fresh store. A Regeneration runs it
// on a store shared with the rest of the regeneration instead.
func (e Experiment) Run(scale Scale, p memsys.Params) (Artifact, error) {
	return e.plan(scale, p).run(store{})
}

// experiment indexes a plan whose artifact is any Artifact type.
func experiment[A Artifact](id, title string, build func(sc Scale, p memsys.Params) plan[A]) Experiment {
	return Experiment{ID: id, Title: title, plan: func(sc Scale, p memsys.Params) plan[Artifact] {
		pl := build(sc, p)
		return plan[Artifact]{pl.cells, func(rs []*stats.Result) Artifact { return pl.render(rs) }}
	}}
}

// Experiments returns the full regeneration index, in DESIGN.md order.
func Experiments() []Experiment {
	fig := func(n int) func(Scale, memsys.Params) plan[*stats.Figure] {
		return func(sc Scale, p memsys.Params) plan[*stats.Figure] { return figurePlan(n, sc, p) }
	}
	return []Experiment{
		experiment("E1", "Figure 2: Cholesky on the five systems", fig(2)),
		experiment("E2", "Figure 3: Integer Sort on the five systems", fig(3)),
		experiment("E3", "Figure 4: Maxflow on the five systems", fig(4)),
		experiment("E4", "Figure 5: Barnes-Hut on the five systems", fig(5)),
		experiment("E5", "Table 1: inherent communication on the z-machine", table1Plan),
		experiment("E6", "§5 claim: z-machine matches PRAM", zVsPRAMPlan),
		experiment("E7", "§6 ablation: store buffer depth (IS/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return storeBufferPlan("is", sc, memsys.KindRCInv, p, []int{1, 2, 4, 8, 16})
		}),
		experiment("E8", "§6 ablation: network speed (Maxflow/RCupd)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return networkPlan("maxflow", sc, memsys.KindRCUpd, p, []float64{0.4, 0.8, 1.6, 3.2})
		}),
		experiment("E9", "§4 ablation: competitive threshold (Barnes-Hut/RCcomp)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return thresholdPlan("nbody", sc, p, []int{1, 2, 4, 8})
		}),
		experiment("E10", "§7 open issue: finite caches (Barnes-Hut/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return finiteCachePlan("nbody", sc, memsys.KindRCInv, p, []int{16, 64, 256})
		}),
		experiment("E11", "§6 suggestion: prefetching (Cholesky/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return prefetchPlan("cholesky", sc, p, []int{0, 1, 2, 4})
		}),
		experiment("E12", "§5 baseline framing: SCinv vs RCinv", scVsRCPlan),
		experiment("E13", "§7 open issue: multithreading (Maxflow/RCinv, 4 nodes)", func(sc Scale, _ memsys.Params) plan[*stats.Table] {
			return multithreadPlan("maxflow", sc, memsys.KindRCInv, 4, []int{1, 2, 4})
		}),
		experiment("E14", "scalability framing: IS/RCinv speedup", func(sc Scale, _ memsys.Params) plan[*stats.Table] {
			return scalabilityPlan("is", sc, memsys.KindRCInv, []int{1, 2, 4, 8, 16})
		}),
		experiment("E15", "§6 proposal: RCinv vs RCsync (decoupled data flow)", rcSyncPlan),
		experiment("E16", "SPASM topology choice (Maxflow/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return topologyPlan("maxflow", sc, memsys.KindRCInv, p, []string{"mesh", "torus", "hypercube", "xbar", "bus"})
		}),
		experiment("E17", "elimination ordering: natural vs nested dissection (Cholesky/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return orderingPlan(sc, memsys.KindRCInv, p)
		}),
		experiment("E18", "directory pointers: full-map vs Dir-i (Barnes-Hut/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return dirPointerPlan("nbody", sc, memsys.KindRCInv, p, []int{2, 4, 8})
		}),
		experiment("E19", "coherence unit: line size vs false sharing (IS/RCinv)", func(sc Scale, p memsys.Params) plan[*stats.Table] {
			return lineSizePlan("is", sc, memsys.KindRCInv, p, []int{8, 16, 32, 64, 128})
		}),
		experiment("E20", "z-machine oracle: broadcast counter (§3) vs perfect per-consumer (§2.2)", oraclePlan),
	}
}

// FindExperiment returns the experiment with the given ID, searching both
// the regeneration index (E1..) and the scalability family (S1..) at its
// default machine sizes.
func FindExperiment(id string) (Experiment, error) {
	return FindExperimentScaled(id, nil)
}

// Compile-time checks that both artifact types satisfy the interface.
var (
	_ Artifact = (*stats.Table)(nil)
	_ Artifact = (*stats.Figure)(nil)
)
