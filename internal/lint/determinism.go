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
		"operator packages; replayed input must reproduce byte-identical state; " +
		"in every package's in-package tests, forbids map iteration that draws " +
		"from a seeded source declared outside the loop",
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
	diags := testDraws(p)
	if !inReplayableScope(p) {
		return diags
	}
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
						diags = append(diags, mapDrawIn(p, n)...)
					}
				}
			}
			return true
		})
	}
	return diags
}

// testDraws applies mapDrawIn to the package's in-package tests, in every
// package: a seeded test whose draws follow map order is not reproducible.
func testDraws(p *Package) []Diagnostic {
	t := p.Tests
	if t == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range t.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMapRange(t, rs) {
				diags = append(diags, mapDrawIn(t, rs)...)
			}
			return true
		})
	}
	return diags
}

func isMapRange(p *Package, rs *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// mapDrawIn flags the first draw, inside a map-range body, from a *rand.Rand
// declared outside the loop: a method call on it, or the source passed to a
// call. Which key gets which draws then follows Go's randomized map order,
// so a seeded run is not reproducible. A source declared inside the loop
// (one per key) is fine.
func mapDrawIn(p *Package, rs *ast.RangeStmt) []Diagnostic {
	var draw *ast.CallExpr
	var src types.Object
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if draw != nil || !ok {
			return draw == nil
		}
		operands := call.Args
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			operands = append([]ast.Expr{sel.X}, operands...)
		}
		for _, e := range operands {
			obj := rootObject(p, e)
			if obj != nil && isRandSource(p.Info.TypeOf(e)) && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()) {
				draw, src = call, obj
				return false
			}
		}
		return true
	})
	if draw == nil {
		return nil
	}
	return []Diagnostic{p.diag("determinism", rs.Pos(),
		"map iteration order is unspecified but this loop draws from %s, declared outside it (line %d); range over sorted keys or seed a source per key",
		src.Name(), p.position(draw.Pos()).Line)}
}

// isRandSource reports whether t is *rand.Rand of math/rand or math/rand/v2.
func isRandSource(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Rand" && named.Obj().Pkg() != nil && randPkg(named.Obj().Pkg().Path())
}

// rootObject resolves the variable at the root of an identifier or selector
// chain (rnd, s.rnd, s.gen.rnd), or nil.
func rootObject(p *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
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
