package lint

import (
	"go/ast"
	"go/types"
)

// IndexStats flags reads of the spatial indexes' work counters (Stats,
// CacheStats) in the packages that decide simulation behavior. How many
// candidates an index examined, and how often a query cache rebuilt,
// depends on the index kind and on what the cache happened to hold — on a
// run's history, not its state — so a value that reaches a placement or
// load-balancing decision makes a recovered run diverge from an unfailed
// one. The counters are metrics, like the wall clock: gauge sites carry a
// //bracevet:allow indexstats annotation saying so.
var IndexStats = &Analyzer{
	Name: "indexstats",
	Doc:  "no spatial index Stats/CacheStats reads in engine, mapreduce, distrib, partition except annotated metrics-only sites",
	Run:  runIndexStats,
}

func runIndexStats(pass *Pass) error {
	if !pathHasElem(pass.Pkg.PkgPath, "engine", "mapreduce", "distrib", "partition") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || !pathHasElem(obj.Pkg().Path(), "spatial") {
				return true
			}
			if obj.Type().(*types.Signature).Recv() == nil {
				return true
			}
			switch obj.Name() {
			case "Stats", "CacheStats":
				pass.Reportf(sel.Pos(), "%s reads a spatial index's work counters, which depend on cache history; decide from agent state, or annotate //%s indexstats <reason> for metrics-only use", obj.Name(), AllowDirective)
			}
			return true
		})
	}
	return nil
}
