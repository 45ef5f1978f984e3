package workload

import (
	"fmt"

	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Claim is one of the paper's qualitative claims, stated as an executable
// check. EvaluateClaims runs all of them and renders a verdict table —
// the reproduction's machine-checkable summary.
type Claim struct {
	ID    string
	Text  string // the paper's claim, paraphrased
	Check func(run lookup) (ok bool, detail string)
}

// lookup returns the result of app on kind at the claims' base parameters.
// The claims declare every app × kind cell up front, so a lookup cannot
// fail.
type lookup func(app string, kind memsys.Kind) *stats.Result

// Claims returns the paper's claims in presentation order.
func Claims() []Claim {
	return []Claim{
		{"C1", "z-machine: write stall and buffer flush are zero by construction; total overhead is virtually zero (§5)",
			func(run lookup) (bool, string) {
				for _, app := range AppNames() {
					r := run(app, memsys.KindZMachine)
					if r.TotalWriteStall() != 0 || r.TotalBufferFlush() != 0 || r.OverheadPct() > 1 {
						return false, fmt.Sprintf("%s: overhead %.2f%%", app, r.OverheadPct())
					}
				}
				return true, "overhead ≤ 1% on all four applications"
			}},
		{"C2", "the z-machine's performance matches the PRAM's (§5)",
			func(run lookup) (bool, string) {
				worst := 0.0
				for _, app := range AppNames() {
					ratio := float64(run(app, memsys.KindZMachine).ExecTime) / float64(run(app, memsys.KindPRAM).ExecTime)
					worst = max(worst, ratio)
					if ratio > 1.02 {
						return false, fmt.Sprintf("%s: zmc/pram = %.3f", app, ratio)
					}
				}
				return true, fmt.Sprintf("worst zmc/pram ratio %.4f", worst)
			}},
		{"C3", "no real memory system beats the z-machine (§2: a realistic lower bound)",
			func(run lookup) (bool, string) {
				for _, app := range AppNames() {
					z := run(app, memsys.KindZMachine)
					for _, kind := range memsys.FigureKinds()[1:] {
						if run(app, kind).ExecTime < z.ExecTime {
							return false, fmt.Sprintf("%s on %s beats zmc", app, kind)
						}
					}
				}
				return true, "z-machine is the floor on all 16 (app, system) pairs"
			}},
		{"C4", "the RCinv-vs-RCupd read-stall gap signals data reuse: large for Barnes-Hut and Maxflow, small for Cholesky and IS (§5)",
			func(run lookup) (bool, string) {
				ratio := func(app string) float64 {
					return float64(run(app, memsys.KindRCUpd).TotalReadStall()) / float64(run(app, memsys.KindRCInv).TotalReadStall())
				}
				var detail string
				for _, app := range []string{"nbody", "maxflow"} {
					r := ratio(app)
					detail += fmt.Sprintf("%s %.2f ", app, r)
					if r > 0.6 {
						return false, fmt.Sprintf("%s ratio %.2f, want <0.6", app, r)
					}
				}
				for _, app := range []string{"cholesky", "is"} {
					r := ratio(app)
					detail += fmt.Sprintf("%s %.2f ", app, r)
					if r < 0.55 {
						return false, fmt.Sprintf("%s ratio %.2f, want >0.55", app, r)
					}
				}
				return true, "upd/inv read-stall ratios: " + detail
			}},
		{"C5", "read stall dominates RCinv's overheads (§5)",
			func(run lookup) (bool, string) {
				for _, app := range AppNames() {
					r := run(app, memsys.KindRCInv)
					if r.TotalReadStall() <= r.TotalWriteStall()+r.TotalBufferFlush() {
						return false, app
					}
				}
				return true, "on all four applications"
			}},
		{"C6", "update protocols pay on the write side what they save on reads (§5: RCinv write stall lowest; merge buffer raises flush)",
			func(run lookup) (bool, string) {
				inv, upd := run("nbody", memsys.KindRCInv), run("nbody", memsys.KindRCUpd)
				if upd.TotalWriteStall() <= inv.TotalWriteStall() {
					return false, "nbody write stall not higher under rcupd"
				}
				if float64(upd.TotalBufferFlush()) < 0.9*float64(inv.TotalBufferFlush()) {
					return false, "nbody buffer flush not higher under rcupd"
				}
				return true, fmt.Sprintf("nbody write stall: rcupd %d vs rcinv %d", upd.TotalWriteStall(), inv.TotalWriteStall())
			}},
		{"C7", "the adaptive protocol follows the sharing pattern: update-like on Barnes-Hut, invalidate-like on Maxflow (§5)",
			func(run lookup) (bool, string) {
				ratio := func(app string) float64 {
					return float64(run(app, memsys.KindRCAdapt).TotalReadStall()) / float64(run(app, memsys.KindRCInv).TotalReadStall())
				}
				mf, bh := ratio("maxflow"), ratio("nbody")
				// Scale-robust form: the adaptive protocol keeps more of
				// the update advantage on the stable pattern (Barnes-Hut)
				// than on the random one (Maxflow), and the stable-pattern
				// advantage is substantial.
				if bh >= mf || bh > 0.5 {
					return false, fmt.Sprintf("adapt/inv read-stall: maxflow %.2f, nbody %.2f (want nbody < maxflow and ≤0.5)", mf, bh)
				}
				return true, fmt.Sprintf("adapt/inv read-stall: maxflow %.2f, nbody %.2f", mf, bh)
			}},
		{"C8", "RCadapt and RCcomp send fewer updates than RCupd where the sharing set changes (§5, Cholesky)",
			func(run lookup) (bool, string) {
				upd := run("cholesky", memsys.KindRCUpd)
				for _, kind := range []memsys.Kind{memsys.KindRCAdapt, memsys.KindRCComp} {
					if a := run("cholesky", kind); a.Counters.Updates >= upd.Counters.Updates {
						return false, fmt.Sprintf("%s sent %d ≥ rcupd's %d", kind, a.Counters.Updates, upd.Counters.Updates)
					}
				}
				return true, fmt.Sprintf("rcupd sent %d updates; both adaptive systems sent fewer", upd.Counters.Updates)
			}},
		{"C9", "sequential consistency pays write stall that release consistency absorbs (§1/§5 framing)",
			func(run lookup) (bool, string) {
				sc, rc := run("is", memsys.KindSCInv), run("is", memsys.KindRCInv)
				if sc.TotalWriteStall() <= rc.TotalWriteStall() {
					return false, "SC write stall not above RC's"
				}
				return true, fmt.Sprintf("IS write stall: scinv %d vs rcinv %d", sc.TotalWriteStall(), rc.TotalWriteStall())
			}},
		{"C10", "decoupling data flow from synchronization eliminates buffer flush (§6 proposal, realized as rcsync)",
			func(run lookup) (bool, string) {
				for _, app := range AppNames() {
					if r := run(app, memsys.KindRCSync); r.TotalBufferFlush() != 0 {
						return false, fmt.Sprintf("%s flush %d", app, r.TotalBufferFlush())
					}
				}
				return true, "buffer flush is exactly 0 on all four applications"
			}},
	}
}

// EvaluateClaims runs every claim and returns the verdict table plus an
// overall pass flag.
func EvaluateClaims(scale Scale, p memsys.Params) (*stats.Table, bool, error) {
	s, err := fill(claimCells(scale, p))
	if err != nil {
		return nil, false, err
	}
	t, ok := checkClaims(s, scale, p)
	return t, ok, nil
}

// claimCells declares the claims' cells: every app × kind at p, the
// SummaryMatrix set.
func claimCells(scale Scale, p memsys.Params) []cell {
	return across(AppNames(), memsys.Kinds(), scale, p)
}

// checkClaims checks each claim against the claims' cells in s. A cell is
// read from s the first time a claim looks it up, so only the cells the
// claims use count in metrics.
func checkClaims(s store, scale Scale, p memsys.Params) (*stats.Table, bool) {
	read := map[cell]*stats.Result{}
	run := func(app string, kind memsys.Kind) *stats.Result {
		c := cell{app: app, scale: scale, kind: kind, p: p}
		if read[c] == nil {
			read[c] = s.get(c)
		}
		return read[c]
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Paper claims, machine-checked (%s scale, %d processors)", scale, p.Procs),
		Head:  []string{"claim", "verdict", "evidence", "statement"},
	}
	all := true
	for _, cl := range Claims() {
		ok, detail := cl.Check(run)
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			all = false
		}
		t.Add(cl.ID, verdict, detail, cl.Text)
	}
	return t, all
}
