package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// AllowDirective is the comment prefix that suppresses one bracevet
// finding: `//bracevet:allow <analyzer> <reason>`. The reason is
// mandatory — an allow without one does not suppress and is itself
// reported — so every escape hatch in the tree documents why the site is
// exempt from the determinism invariant. The directive covers findings on
// its own line (trailing comment) and on the line directly below it
// (comment-above style).
const AllowDirective = "bracevet:allow"

// Analyzer is one bracevet check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags  *[]Diagnostic
	allows map[string][]allow // file name -> directives, built lazily
}

type allow struct {
	line     int // line the directive comment starts on
	analyzer string
	reason   string
}

// Reportf records a finding at pos unless an allow directive with a
// non-empty reason covers it. An allow that names this analyzer but
// carries no reason is deliberately ignored — and called out — so bare
// suppressions can't accumulate.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	for _, a := range p.allowsFor(position.Filename) {
		if a.analyzer != p.Analyzer.Name {
			continue
		}
		if a.line != position.Line && a.line != position.Line-1 {
			continue
		}
		if a.reason == "" {
			msg += fmt.Sprintf(" (the %s directive on line %d is missing its required reason and was ignored)", AllowDirective, a.line)
			break
		}
		return // suppressed, with a documented reason
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: msg})
}

// allowsFor parses the allow directives of one file, caching per Pass.
func (p *Pass) allowsFor(filename string) []allow {
	if p.allows == nil {
		p.allows = make(map[string][]allow)
	}
	if as, ok := p.allows[filename]; ok {
		return as
	}
	var file *ast.File
	for _, f := range p.Pkg.Files {
		if p.Pkg.Fset.Position(f.Package).Filename == filename {
			file = f
			break
		}
	}
	var as []allow
	if file != nil {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+AllowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				a := allow{line: p.Pkg.Fset.Position(c.Pos()).Line}
				if len(fields) > 0 {
					a.analyzer = fields[0]
				}
				if len(fields) > 1 {
					a.reason = strings.Join(fields[1:], " ")
				}
				as = append(as, a)
			}
		}
	}
	p.allows[filename] = as
	return as
}

// Run applies every analyzer to every target package and returns the
// surviving findings in deterministic (file, line, column, analyzer)
// order. Packages that failed to parse or type-check yield a loud
// diagnostic instead of silently analyzing half a tree.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range Targets(pkgs) {
		if len(pkg.Errors) > 0 {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: pkg.Dir},
				Analyzer: "typecheck",
				Message:  fmt.Sprintf("package %s failed to load: %v", pkg.PkgPath, pkg.Errors[0]),
			})
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: pkg.Dir},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full bracevet suite.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, FrameCase, WallClock, GlobalRand, IndexStats}
}

// deterministicPkg reports whether a package path belongs to the
// deterministic core: the packages whose in-memory execution order must
// not leak into simulation state because the cross-engine equivalence
// suites assert bit-identical results over them. Matching is by path
// element so the analyzers work unchanged on testdata modules.
func deterministicPkg(path string) bool {
	return pathHasElem(path, "engine", "mapreduce", "distrib", "transport", "scenario",
		"sim", "spatial", "partition", "agent", "service")
}

// simStatePkg reports whether a package path computes simulation state
// proper — the wallclock scope. Narrower than deterministicPkg: the
// control plane (distrib, transport, service) reads real clocks by
// design for liveness deadlines and adaptive timeouts; state-bearing
// packages may not, except at sites annotated metrics-only.
func simStatePkg(path string) bool {
	return pathHasElem(path, "engine", "mapreduce", "scenario", "sim", "spatial",
		"partition", "agent")
}

// pathHasElem reports whether any element of the package path is one of
// elems.
func pathHasElem(path string, elems ...string) bool {
	for _, e := range strings.Split(path, "/") {
		if slices.Contains(elems, e) {
			return true
		}
	}
	return false
}
