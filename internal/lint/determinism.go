package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ReplayableScope lists the module-relative package prefixes whose code must
// be deterministic: these packages run inside the checkpoint/replay boundary,
// where re-executing the same input records must reproduce byte-identical
// operator state and output. The determinism analyzer only fires inside this
// scope.
var ReplayableScope = []string{
	"internal/synopses",
	"internal/cer",
	"internal/lowlevel",
	"internal/flp",
	"internal/linkdisc",
	"internal/checkpoint",
	"internal/wire",
}

var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbids wall-clock reads (time.Now/Since/Until), the global math/rand " +
		"source, and map iteration that feeds encoders or outputs inside replayable " +
		"operator packages; replayed input must reproduce byte-identical state",
	Run: runDeterminism,
}

// globalRandFuncs are the math/rand package-level functions that draw from
// the shared, non-reproducible default source. Methods on an explicitly
// seeded *rand.Rand are fine and are not listed here.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true, "Uint32N": true, "Uint64N": true,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func inReplayableScope(p *Package) bool {
	for _, prefix := range ReplayableScope {
		if p.RelPath == prefix || strings.HasPrefix(p.RelPath, prefix+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(p *Package) []Diagnostic {
	if !inReplayableScope(p) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil {
					sig, _ := fn.Type().(*types.Signature)
					pkgLevel := sig != nil && sig.Recv() == nil
					switch {
					case pkgLevel && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()]:
						diags = append(diags, p.diag("determinism", n.Pos(),
							"call to time.%s in replayable operator code; derive time from event timestamps or watermarks so replay is reproducible", fn.Name()))
					case pkgLevel && randPkg(fn.Pkg().Path()) && globalRandFuncs[fn.Name()]:
						diags = append(diags, p.diag("determinism", n.Pos(),
							"call to %s.%s uses the global random source in replayable operator code; use a seeded *rand.Rand carried in operator state", pathBase(fn.Pkg().Path()), fn.Name()))
					}
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if call, name := emitCallIn(p, n.Body); call != nil {
							diags = append(diags, p.diag("determinism", n.Pos(),
								"map iteration order is unspecified but this loop emits output via %s (line %d); collect and sort keys first",
								name, p.position(call.Pos()).Line))
						}
						diags = append(diags, floatAccumIn(p, n.Body)...)
					}
				}
			}
			return true
		})
	}
	return diags
}

func randPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// emitNames are method/function names that serialize or emit data; reaching
// one of these from inside an unordered map iteration makes the emitted
// bytes depend on Go's randomized map order.
func isEmitName(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo", "Emit", "Publish", "Produce", "Send":
		return true
	}
	return strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Fprint") ||
		strings.HasPrefix(name, "Marshal")
}

// emitCallIn returns the first emit-like call (or channel send) found
// anywhere inside body, along with a printable name for it.
func emitCallIn(p *Package, body *ast.BlockStmt) (ast.Node, string) {
	var found ast.Node
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found, name = n, "channel send"
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(p, n); fn != nil && isEmitName(fn.Name()) {
				found, name = n, fn.Name()
				return false
			}
		case *ast.FuncLit:
			return false // deferred execution; analyzed on its own
		}
		return true
	})
	return found, name
}

// floatAccumIn flags compound floating-point accumulation (x += v, x *= v,
// ...) inside a map-range body when the target is not indexed per key:
// float arithmetic is not associative, so the accumulated value depends on
// Go's randomized map order. Per-element updates (m[k] *= f) touch each key
// independently and are fine.
func floatAccumIn(p *Package, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok.String() {
		case "+=", "-=", "*=", "/=":
		default:
			return true
		}
		lhs := ast.Unparen(as.Lhs[0])
		if _, indexed := lhs.(*ast.IndexExpr); indexed {
			return true
		}
		t := p.Info.TypeOf(lhs)
		if t == nil {
			return true
		}
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
			diags = append(diags, p.diag("determinism", as.Pos(),
				"floating-point accumulation (%s) inside unordered map iteration is order-dependent; iterate sorted keys", as.Tok))
		}
		return true
	})
	return diags
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// type conversions, and calls of function-typed values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
