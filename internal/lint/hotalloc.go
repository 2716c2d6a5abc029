package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathScope lists the module-relative packages whose exported processing
// entry points anchor the hot-path reachability analysis: the shard plane
// and the pipeline coordinator. Any function reachable from a
// Process/Run/Feed/Submit/Poll/Next/Emit/Drain entry point of these
// packages — across package boundaries, through goroutine spawns and
// interface dispatch — executes per record at steady state.
var HotPathScope = []string{
	"internal/shard",
	"internal/core",
}

// hotPathRootNames are the entry-point name prefixes that mark a function in
// HotPathScope as a per-record processing root.
var hotPathRootNames = []string{
	"Process", "Run", "Feed", "Submit", "Poll", "Next", "Emit", "Drain", "Observe", "Push",
}

// HotPathExtraRoots names per-record and per-batch entry points that the
// prefix rule misses: the wire codec (encoded/decoded once per record on
// the ingest and shard-worker paths), the broker's batch produce and its
// polls into a caller's buffer, the pipeline's batch ingest, the
// critical-point emit path (triple generation, the typed graph renderer,
// N-Triples encoding, link discovery into a reused buffer, the merge's
// per-batch output flush), the weather read of every critical point, and the
// per-trajectory kernels that run on every report (future-location
// prediction, the synopses generator and its record encoder, the in-situ
// profiler), and the per-mover step functions a shard worker's mover table
// drives them through (the ID-bytes decode, the synopses track step, the
// area membership step, the worker's mover lookup, the prediction into the
// mover's reused buffer, the write of its Dashboard slot). Keys are
// module-relative package prefixes, matched like HotPathScope; values are
// exact function or method names.
var HotPathExtraRoots = map[string][]string{
	"internal/mobility": {"AppendBinary", "UnmarshalReportBinary", "Decode", "DecodeFields"},
	"internal/msg":      {"ProduceBatch", "PollInto", "TryPollInto"},
	"internal/shard":    {"SubmitBatch"},
	"internal/core":     {"Ingest", "flushBatch", "moverOf"},
	"internal/gen":      {"WindAndWave"},
	"internal/rdf":      {"AppendNT"},
	"internal/rdfgen":   {"Generate", "Render"},
	"internal/linkdisc": {"AppendPoint"},
	"internal/flp":      {"Observe", "Predict", "AppendPredict"},
	"internal/synopses": {"Process", "AppendRecord", "AppendStep"},
	"internal/lowlevel": {"Observe", "Step"},
	"internal/va":       {"Set"},
}

var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-inducing constructs inside loops of functions " +
		"reachable from shard/core processing entry points: per-record " +
		"fmt.Sprintf/Errorf formatting, append growth into slices declared " +
		"without capacity, map/slice composite literals, and explicit " +
		"interface conversions that box their operand",
	RunModule: runHotAlloc,
}

func runHotAlloc(m *Module) []Diagnostic {
	g := m.Graph()

	// Roots: processing entry points of the hot-path packages, by name
	// prefix, plus the explicitly listed codec/batch entry points.
	var roots []*types.Func
	for _, n := range g.All() {
		name := n.Obj.Name()
		if inHotPathScope(n.Pkg) && hasRootPrefix(name) {
			roots = append(roots, n.Obj)
			continue
		}
		if isExtraRoot(n.Pkg, name) {
			roots = append(roots, n.Obj)
		}
	}
	reachable := g.Reachable(roots, true)

	var diags []Diagnostic
	for _, n := range g.All() {
		if !reachable[n.Obj] {
			continue
		}
		diags = append(diags, hotAllocInFunc(n)...)
	}
	return diags
}

func inHotPathScope(p *Package) bool {
	for _, prefix := range HotPathScope {
		if p.RelPath == prefix || strings.HasPrefix(p.RelPath, prefix+"/") {
			return true
		}
	}
	return false
}

func hasRootPrefix(name string) bool {
	for _, prefix := range hotPathRootNames {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// isExtraRoot reports whether name is one of the explicitly rooted entry
// points for p's package subtree.
func isExtraRoot(p *Package, name string) bool {
	for prefix, names := range HotPathExtraRoots {
		if p.RelPath != prefix && !strings.HasPrefix(p.RelPath, prefix+"/") {
			continue
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
	}
	return false
}

// hotAllocInFunc scans one hot-path function: it first records how every
// function-local slice variable is declared (sized or not), then walks each
// loop body flagging allocation-inducing constructs.
func hotAllocInFunc(n *FuncNode) []Diagnostic {
	p := n.Pkg
	unsized := unsizedSlices(p, n.Decl.Body)

	var diags []Diagnostic
	var walkLoop func(body *ast.BlockStmt)
	walkLoop = func(body *ast.BlockStmt) {
		ast.Inspect(body, func(nd ast.Node) bool {
			switch e := nd.(type) {
			case *ast.CallExpr:
				diags = append(diags, checkHotCall(p, n, e, unsized)...)
			case *ast.CompositeLit:
				if t := p.Info.TypeOf(e); t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						diags = append(diags, p.diag("hotalloc", e.Pos(),
							"map literal allocated on every iteration of a hot-path loop in %s; hoist it out of the loop or reuse a cleared map", n.Obj.Name()))
					case *types.Slice:
						diags = append(diags, p.diag("hotalloc", e.Pos(),
							"slice literal allocated on every iteration of a hot-path loop in %s; hoist it out of the loop or reuse a buffer", n.Obj.Name()))
					}
				}
			}
			return true
		})
	}
	// Function literals are scanned too: the dataflow engine's per-record
	// loops live inside `go func() { for e := range in { ... } }()` bodies.
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.ForStmt:
			walkLoop(s.Body)
			return false // nested loops are covered by this walk
		case *ast.RangeStmt:
			walkLoop(s.Body)
			return false
		}
		return true
	})
	return diags
}

// checkHotCall flags per-iteration formatting calls, unsized append growth
// and explicit boxing conversions.
func checkHotCall(p *Package, n *FuncNode, call *ast.CallExpr, unsized map[*types.Var]bool) []Diagnostic {
	var diags []Diagnostic

	// Explicit interface conversion: T(x) where T is an interface and x is
	// a concrete non-pointer value — the conversion heap-boxes x.
	if len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if types.IsInterface(tv.Type) {
				argT := p.Info.TypeOf(call.Args[0])
				if argT != nil && !types.IsInterface(argT) && !isUntypedNil(argT) {
					if _, isPtr := argT.Underlying().(*types.Pointer); !isPtr {
						diags = append(diags, p.diag("hotalloc", call.Pos(),
							"interface conversion boxes a %s per iteration of a hot-path loop in %s; keep the concrete type or convert once outside the loop",
							argT, n.Obj.Name()))
					}
				}
			}
			return diags
		}
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if isBuiltin(p, fun, "append") {
			// Flag growth into slices the function declared without capacity.
			if len(call.Args) > 0 {
				if v := rootVar(p, call.Args[0]); v != nil && unsized[v] {
					diags = append(diags, p.diag("hotalloc", call.Pos(),
						"append grows %q, declared without capacity, inside a hot-path loop in %s; pre-size it with make(..., 0, n)",
						v.Name(), n.Obj.Name()))
				}
			}
		}
	case *ast.SelectorExpr:
		if fn := callee(p, call); fn != nil && fn.Pkg() != nil {
			path, name := fn.Pkg().Path(), fn.Name()
			if path == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln" || name == "Errorf") {
				diags = append(diags, p.diag("hotalloc", call.Pos(),
					"fmt.%s allocates on every iteration of a hot-path loop in %s; format once outside the loop or use strconv/append-style encoding", name, n.Obj.Name()))
			}
			if path == "errors" && name == "New" {
				diags = append(diags, p.diag("hotalloc", call.Pos(),
					"errors.New allocates on every iteration of a hot-path loop in %s; declare the error once as a package-level sentinel", n.Obj.Name()))
			}
		}
	}
	return diags
}

// unsizedSlices maps the function's slice variables declared without any
// capacity — `var s []T`, `s := []T{}`, `make([]T, 0)` — to true. Slices
// built with an explicit length or capacity are considered pre-sized.
func unsizedSlices(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(name *ast.Ident, init ast.Expr) {
		v, ok := p.Info.Defs[name].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if init == nil { // var s []T
			out[v] = true
			return
		}
		switch e := ast.Unparen(init).(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 { // s := []T{}
				out[v] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && isBuiltin(p, id, "make") {
				// make([]T, 0) with no capacity argument.
				if len(e.Args) == 2 {
					if lit := constZero(p, e.Args[1]); lit {
						out[v] = true
					}
				}
			}
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(s.Rhs) {
						mark(id, s.Rhs[i])
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							var init ast.Expr
							if i < len(vs.Values) {
								init = vs.Values[i]
							}
							mark(name, init)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// isBuiltin reports whether id resolves to the predeclared builtin of the
// given name rather than a shadowing declaration.
func isBuiltin(p *Package, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// isUntypedNil reports whether t is the type of the predeclared nil.
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// constZero reports whether e is the integer literal 0.
func constZero(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// rootVar unwraps an expression to its root identifier's variable.
func rootVar(p *Package, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := p.Info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
