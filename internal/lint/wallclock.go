package lint

import (
	"go/ast"
	"go/types"
)

// NoWallclock forbids reading the wall clock in deterministic packages.
//
// The simulation's byte-identical contract means every value that can reach
// the experiments document must derive from sim time (the runtime seam's
// Context.Now) or from the seeded rng — never from the host's clock. PR 5
// spent a redesign scrubbing wall-clock timings out of the Result tables;
// this rule keeps them from creeping back. Packages where wall clock is the
// point (the UDP transport, the ops HTTP servers, the CLI
// drivers) are simply not listed in Packages.
type NoWallclock struct {
	// Packages are the deterministic packages the rule applies to.
	Packages PackageSet
}

func (NoWallclock) Name() string { return "no-wallclock" }
func (NoWallclock) Doc() string {
	return "forbid time.Now/time.Since and friends in deterministic packages; derive time from the runtime seam"
}

// wallclockFuncs are the time-package functions that read or wait on the
// host clock. Constructors like time.Date and pure conversions (ParseDuration,
// Unix) are deterministic and stay legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func (a NoWallclock) Run(pass *Pass) {
	if pass.Pkg.Info == nil || !a.Packages.Match(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
				return true
			}
			pass.Report(sel.Pos(), "time.%s reads the wall clock in a deterministic package; use the runtime seam's sim time (Context.Now) or move the measurement to a driver", fn.Name())
			return true
		})
	}
}
