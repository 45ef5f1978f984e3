package lint

import (
	"sync"
	"testing"
	"time"
)

// module is the whole module, type-checked from source once per test
// binary: the load dominates this package's test time, and every
// whole-module test and benchmark shares it.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule returns every package of the module, loading them on first
// use, outside any timed region, so the budget and benchmark measure
// analysis alone. Analyzers only read the packages, so sharing is safe.
func loadModule(tb testing.TB) []*Package {
	tb.Helper()
	module.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			module.err = err
			return
		}
		module.pkgs, module.err = NewLoader().Load(root, []string{"./..."})
	})
	if module.err != nil {
		tb.Fatal(module.err)
	}
	return module.pkgs
}

// TestLintTimeBudget guards the whole-module analysis wall-time: the full
// suite over pre-loaded packages must stay within a budget an order of
// magnitude above today's cost, so an analyzer that turns superlinear in
// the module's size trips this long before it hangs CI.
func TestLintTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program load in -short mode")
	}
	pkgs := loadModule(t)
	start := time.Now()
	findings := Run(pkgs)
	elapsed := time.Since(start)
	const budget = 30 * time.Second
	if elapsed > budget {
		t.Errorf("whole-module lint took %v, budget %v", elapsed, budget)
	}
	t.Logf("whole-module lint: %v, %d finding(s)", elapsed, len(findings))
}

// BenchmarkZlintModule measures the full analysis suite over the whole
// module (packages pre-loaded). Track it with benchdiff when touching the
// lint engine.
func BenchmarkZlintModule(b *testing.B) {
	pkgs := loadModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(pkgs)
	}
}
