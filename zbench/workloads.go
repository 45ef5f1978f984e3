package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zsim/internal/apps"
	"zsim/internal/apps/barneshut"
	"zsim/internal/apps/cholesky"
	"zsim/internal/apps/intsort"
	"zsim/internal/apps/maxflow"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/workload"
)

// DefaultSeed is the seed the committed goldens were recorded at. At this
// seed every application keeps its own default input; any other seed
// derives fresh inputs, which must still pass App.Verify.
const DefaultSeed = 1

// cellSpec is one simulation cell: one application on one memory system
// with one Params, the unit runner.Grid and zsimd clients wait on.
type cellSpec struct {
	Name   string // golden key within the workload
	App    string
	Scale  workload.Scale
	Kind   memsys.Kind
	Params memsys.Params
	// Label is the paper's figure-top overhead% for this app and system,
	// or negative when the cell has no paper counterpart.
	Label float64
}

// workloadSpec is one benchmark workload: the cells of one pass and how
// they are scheduled. Cells are listed cheapest first (tests run a prefix);
// each pass submits them in a seeded order.
type workloadSpec struct {
	Name string
	Why  string
	// Parallelism bounds runner.Grid's worker pool (never above nproc).
	Parallelism int
	// NominalPass is one pass's host time on the reference host (2 CPUs,
	// go1.24). A run of S seconds measures round(S/NominalPass) passes, so
	// both sides of a comparison take the same number of samples.
	NominalPass time.Duration
	Cells       []cellSpec
}

// paperLabels are the overhead percentages printed above the bars of the
// paper's Figures 2–5 (EXPERIMENTS.md), by application and system.
func paperLabels() map[string]map[memsys.Kind]float64 {
	row := func(zmc, inv, upd, adapt, comp float64) map[memsys.Kind]float64 {
		return map[memsys.Kind]float64{
			memsys.KindZMachine: zmc, memsys.KindRCInv: inv, memsys.KindRCUpd: upd,
			memsys.KindRCAdapt: adapt, memsys.KindRCComp: comp,
		}
	}
	return map[string]map[memsys.Kind]float64{
		"cholesky": row(0.00, 28.86, 31.17, 26.94, 25.85),
		"is":       row(0.00, 29.26, 56.40, 38.50, 39.93),
		"maxflow":  row(0.21, 37.65, 58.52, 43.16, 42.27),
		"nbody":    row(0.00, 6.03, 3.25, 3.29, 3.29),
	}
}

// newCell names a cell and attaches its paper label. Finite-cache cells
// and non-default topologies have no paper counterpart.
func newCell(app string, scale workload.Scale, kind memsys.Kind, p memsys.Params) cellSpec {
	c := cellSpec{App: app, Scale: scale, Kind: kind, Params: p, Label: -1}
	c.Name = fmt.Sprintf("%s/%s/%s/p%d", app, kind, scale, p.Procs)
	if p.Topology != "mesh" {
		c.Name += "/" + p.Topology
	}
	if p.FiniteCache {
		c.Name += fmt.Sprintf("/finite%dx%d", p.CacheLines, p.CacheAssoc)
		return c
	}
	if l, ok := paperLabels()[app][kind]; ok {
		c.Label = l
	}
	return c
}

// Workloads returns the benchmark's workloads in a fixed order.
func Workloads() []workloadSpec {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	var matrix []cellSpec
	for _, app := range workload.AppNames() {
		for _, kind := range memsys.Kinds() {
			matrix = append(matrix, newCell(app, workload.ScaleSmall, kind, memsys.Default(16)))
		}
	}
	for _, app := range workload.AppNames() {
		p := memsys.Default(16)
		p.FiniteCache, p.CacheLines, p.CacheAssoc = true, 256, 4
		matrix = append(matrix, newCell(app, workload.ScaleSmall, memsys.KindRCInv, p))
	}
	hier := memsys.Default(1024)
	hier.Topology = "hier"
	return []workloadSpec{
		{
			Name:        "matrix-small",
			Why:         "many short machines: construction, first-touch paging and runner fan-out dominate; the only cells on the finite-cache LRU path",
			Parallelism: procs,
			NominalPass: 270 * time.Millisecond,
			Cells:       matrix,
		},
		{
			Name:        "paper-long",
			Why:         "three paper-scale machines, one per protocol family: per-trap cost (switches, blocks, mesh sends) dominates, page allocation does not",
			Parallelism: 1,
			NominalPass: 5 * time.Second,
			Cells: []cellSpec{
				newCell("cholesky", workload.ScalePaper, memsys.KindZMachine, memsys.Default(16)),
				newCell("nbody", workload.ScalePaper, memsys.KindRCUpd, memsys.Default(16)),
				newCell("maxflow", workload.ScalePaper, memsys.KindRCInv, memsys.Default(16)),
			},
		},
		{
			Name:        "manycore",
			Why:         "256 and 1024 processors: deep run queues, long routes, wide presence bitsets and large per-home page tables",
			Parallelism: 1,
			NominalPass: 3200 * time.Millisecond,
			Cells: []cellSpec{
				newCell("cholesky", workload.ScaleSmall, memsys.KindRCInv, hier),
				newCell("is", workload.ScaleSmall, memsys.KindRCInv, memsys.Default(256)),
			},
		},
	}
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Salts separate the random streams one seed feeds.
const (
	saltIntsort uint64 = iota + 1
	saltBarnesHut
	saltOrder
	saltMicro
	saltMaxflow
)

// derive maps (seed, salt) to an independent non-negative seed
// (SplitMix64 finalizer).
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + salt*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// appConfigs holds one scale's application inputs for one seed.
type appConfigs struct {
	cholesky  cholesky.Config
	intsort   intsort.Config
	maxflow   maxflow.Config
	barneshut barneshut.Config
}

// pramWork is the number of traps an application input costs on a
// 16-processor PRAM: a cheap measure of how much work the input needs,
// free of the memory system's timing.
func pramWork(app apps.App) (uint64, error) {
	m, err := machine.New(memsys.KindPRAM, memsys.Default(16))
	if err != nil {
		return 0, err
	}
	app.Setup(m)
	m.Run(app.Name(), app.Body)
	if err := app.Verify(m); err != nil {
		return 0, err
	}
	return m.Eng.Switches() + m.Eng.FastPathHits(), nil
}

// similarSeed draws input seeds for one application until the input's
// pramWork is within 5% of the default input's. Maxflow's work varies by
// orders of magnitude with the graph (excess stranded far from the source
// must climb back to it) and Barnes-Hut's by a tenth with the bodies; the
// band keeps each seed's cell in the default cell's cost class, so the
// seed varies the input, not the amount of work.
func similarSeed(seed int64, salt uint64, defaultSeed int64, build func(seed int64) apps.App) (int64, error) {
	want, err := pramWork(build(defaultSeed))
	if err != nil {
		return 0, err
	}
	base := derive(seed, salt)
	for attempt := uint64(0); attempt < 256; attempt++ {
		s := derive(base, attempt)
		got, err := pramWork(build(s))
		if err != nil {
			return 0, err
		}
		if 20*got >= 19*want && 20*got <= 21*want {
			return s, nil
		}
	}
	return 0, fmt.Errorf("seed %d: no input within 5%% of the default's work after 256 draws", seed)
}

// configsFor derives the inputs of one scale from the seed. The seed goes
// into every seeded application's Config.Seed (IS, Maxflow, Barnes-Hut);
// Cholesky's input is a fixed grid.
func configsFor(scale workload.Scale, seed int64) (appConfigs, error) {
	c := appConfigs{cholesky.Small(), intsort.Small(), maxflow.Small(), barneshut.Small()}
	if scale == workload.ScalePaper {
		c = appConfigs{cholesky.Paper(), intsort.Paper(), maxflow.Paper(), barneshut.Paper()}
	}
	if seed == DefaultSeed {
		return c, nil
	}
	c.intsort.Seed = derive(seed, saltIntsort)
	mf, bh := c.maxflow, c.barneshut
	var err error
	if c.maxflow.Seed, err = similarSeed(seed, saltMaxflow, mf.Seed, func(s int64) apps.App {
		mf.Seed = s
		return maxflow.New(mf)
	}); err != nil {
		return c, err
	}
	if c.barneshut.Seed, err = similarSeed(seed, saltBarnesHut, bh.Seed, func(s int64) apps.App {
		bh.Seed = s
		return barneshut.New(bh)
	}); err != nil {
		return c, err
	}
	return c, nil
}

// newApp builds the named application from the configs.
func (c appConfigs) newApp(name string) (apps.App, error) {
	switch name {
	case "cholesky":
		return cholesky.New(c.cholesky), nil
	case "is":
		return intsort.New(c.intsort), nil
	case "maxflow":
		return maxflow.New(c.maxflow), nil
	case "nbody":
		return barneshut.New(c.barneshut), nil
	}
	return nil, fmt.Errorf("unknown application %q", name)
}

// cellOrder is the seeded order in which a pass submits its cells.
func cellOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(derive(seed, saltOrder))).Perm(n)
}
