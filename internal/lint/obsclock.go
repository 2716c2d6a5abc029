package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// InstrumentedScope lists the module-relative package prefixes that carry
// obs instrumentation. Inside this scope every timing must flow through the
// injected obs.Clock: a direct wall-clock read either breaks deterministic
// replay (for packages that are also in ReplayableScope) or silently
// diverges from the clock the metrics and traces are computed against.
// internal/obs itself is in scope — its WallClock.Now is the one sanctioned
// wall-clock reader and carries an explicit //lint:ignore directive.
var InstrumentedScope = []string{
	"internal/msg",
	"internal/synopses",
	"internal/linkdisc",
	"internal/store",
	"internal/checkpoint",
	"internal/core",
	"internal/health",
	"internal/obs",
}

var obsclockAnalyzer = &Analyzer{
	Name: "obsclock",
	Doc: "forbids direct wall-clock reads (time.Now/Since/Until) in instrumented " +
		"packages; read time through the injected obs.Clock so metrics, traces and " +
		"checkpoint replay all observe the same time source",
	Run: runObsClock,
}

func inInstrumentedScope(p *Package) bool {
	for _, prefix := range InstrumentedScope {
		if p.RelPath == prefix || strings.HasPrefix(p.RelPath, prefix+"/") {
			return true
		}
	}
	return false
}

func runObsClock(p *Package) []Diagnostic {
	if !inInstrumentedScope(p) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			pkgLevel := sig != nil && sig.Recv() == nil
			if pkgLevel && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
				diags = append(diags, p.diag("obsclock", call.Pos(),
					"call to time.%s in instrumented package %s; read time through the injected obs.Clock (Registry.Clock or a cached Clock handle)", fn.Name(), p.RelPath))
			}
			return true
		})
	}
	return diags
}
