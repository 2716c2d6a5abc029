package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BoundedQueueScope lists the module-relative packages that form the bounded
// ingestion plane — the broker, the shard execution plane, the admission
// controller, and the pipeline coordinator that wires them together — and
// the per-trajectory operators whose state the shard workers hold per mover
// (lowlevel, synopses, flp) or the Dashboard keeps (va). Inside this scope
// every queue and every piece of long-lived state must have an auditable
// bound: an unbounded buffer anywhere in the path silently defeats the
// backpressure the rest of the plane enforces, and per-mover state that
// grows with the run makes every checkpoint grow with it.
var BoundedQueueScope = []string{
	"internal/msg",
	"internal/shard",
	"internal/flow",
	"internal/core",
	"internal/lowlevel",
	"internal/synopses",
	"internal/flp",
	"internal/va",
}

var boundedchanAnalyzer = &Analyzer{
	Name: "boundedchan",
	Doc: "enforces auditable queue bounds in the backpressure-plane packages " +
		"(msg, shard, flow, core) and the per-trajectory operators (lowlevel, " +
		"synopses, flp, va): channels must be made with a compile-time " +
		"constant capacity, and slices held in long-lived (pointer-reachable or " +
		"package-level) state must not self-append without a documented bound; " +
		"genuine runtime bounds are documented with //lint:ignore boundedchan",
	Run: runBoundedChan,
}

func inBoundedQueueScope(p *Package) bool {
	for _, prefix := range BoundedQueueScope {
		if p.RelPath == prefix || strings.HasPrefix(p.RelPath, prefix+"/") {
			return true
		}
	}
	return false
}

func runBoundedChan(p *Package) []Diagnostic {
	if !inBoundedQueueScope(p) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if d, ok := chanMakeDiag(p, n); ok {
					diags = append(diags, d)
				}
			case *ast.AssignStmt:
				if d, ok := selfAppendDiag(p, n); ok {
					diags = append(diags, d)
				}
			}
			return true
		})
	}
	return diags
}

// chanMakeDiag flags make(chan T, n) where n is not a compile-time constant.
// A constant capacity is auditable at the declaration site; a runtime
// capacity needs its bound documented where it is made.
func chanMakeDiag(p *Package, call *ast.CallExpr) (Diagnostic, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return Diagnostic{}, false
	}
	if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
		return Diagnostic{}, false
	}
	if len(call.Args) < 2 {
		return Diagnostic{}, false // unbuffered: bounded at zero
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok {
		return Diagnostic{}, false
	}
	if _, ok := tv.Type.Underlying().(*types.Chan); !ok {
		return Diagnostic{}, false
	}
	if capv, ok := p.Info.Types[call.Args[1]]; ok && capv.Value != nil {
		return Diagnostic{}, false // constant capacity: auditable here
	}
	return p.diag("boundedchan", call.Args[1].Pos(),
		"channel capacity %q is not a compile-time constant; the backpressure plane needs auditable queue bounds — use a named constant, or document the runtime bound with //lint:ignore boundedchan <reason>",
		types.ExprString(call.Args[1])), true
}

// selfAppendDiag flags x = append(x, ...) where x is long-lived state: a
// field reached through a pointer (heap state shared beyond the call) or a
// package-level variable. Local-slice accumulation and the slice-delete
// idiom (append(x[:i], x[i+1:]...)) are left alone — only pure growth of
// retained state is an unbounded queue in disguise.
func selfAppendDiag(p *Package, as *ast.AssignStmt) (Diagnostic, bool) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return Diagnostic{}, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return Diagnostic{}, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return Diagnostic{}, false
	}
	if _, ok := p.Info.Uses[fn].(*types.Builtin); !ok {
		return Diagnostic{}, false
	}
	lhs := ast.Unparen(as.Lhs[0])
	if types.ExprString(lhs) != types.ExprString(ast.Unparen(call.Args[0])) {
		return Diagnostic{}, false // shrink/rewrite idiom, not pure growth
	}
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		base, ok := p.Info.Types[e.X]
		if !ok {
			return Diagnostic{}, false
		}
		if _, ptr := base.Type.Underlying().(*types.Pointer); !ptr {
			return Diagnostic{}, false // value-typed local aggregate, dies with the call
		}
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		if !ok || v.Parent() != p.Types.Scope() {
			return Diagnostic{}, false // not a package-level variable
		}
	default:
		return Diagnostic{}, false
	}
	return p.diag("boundedchan", as.Pos(),
		"append grows %q, long-lived state with no visible bound; queues in the backpressure plane must be bounded — enforce a capacity, or document the invariant with //lint:ignore boundedchan <reason>",
		types.ExprString(lhs)), true
}
