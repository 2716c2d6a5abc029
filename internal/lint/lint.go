// Package lint is a project-specific static-analysis suite for the datAcron
// pipeline. It enforces invariants the test suite can only sample: replayable
// operator code must be deterministic, locks must be released on every path,
// checkpointable types must keep Snapshot/Restore symmetric, and write errors
// must not be silently dropped.
//
// The suite is built exclusively on the standard library (go/parser, go/ast,
// go/types); there are no third-party analysis dependencies. The driver
// binary lives in cmd/datacronlint.
//
// # Suppression
//
// Every finding fails the suite; the only way to accept one is an explicit,
// justified directive placed on the flagged line or on the line directly
// above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The analyzer list may be * to match any analyzer. The reason is mandatory:
// a directive without one (or naming an unknown analyzer) is itself reported
// as a "lint" finding, so suppressions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package handed to analyzers.
type Package struct {
	ImportPath string // full import path, e.g. datacron/internal/shard
	RelPath    string // path relative to the module root, e.g. internal/shard
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Tests is the package's in-package _test.go files, type-checked
	// together with Files (Tests.Files holds only the test files); nil
	// when there are none. Only the determinism analyzer reads it.
	Tests *Package
}

func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

func (p *Package) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.position(pos), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// Analyzer is a single named invariant check. Exactly one of Run and
// RunModule is set: Run is a per-package check, RunModule a module-wide
// (interprocedural) check that receives every package at once plus the shared
// call graph through the Module.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Diagnostic
	RunModule func(m *Module) []Diagnostic
}

// Analyzers returns the full registry, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		atomicsafetyAnalyzer,
		boundedchanAnalyzer,
		determinismAnalyzer,
		errdropAnalyzer,
		goroleakAnalyzer,
		hotallocAnalyzer,
		httpserverAnalyzer,
		lockblockAnalyzer,
		locksafetyAnalyzer,
		obsclockAnalyzer,
		sharddeterminismAnalyzer,
		snapshotpairAnalyzer,
		spanendAnalyzer,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every package, filters findings through
// //lint:ignore directives, and returns the surviving diagnostics sorted by
// position. Malformed directives are reported under the pseudo-analyzer
// "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunModule(NewModule(pkgs), analyzers)
}

// RunModule is Run with a caller-provided Module, so the expensive shared
// state (the call graph) can be inspected or reused across invocations.
// Module-wide analyzers run once over the whole package set; per-package
// analyzers run per package as before. Suppression directives from any
// package apply to any diagnostic, since a module analyzer may report into a
// package other than the one that triggered the analysis.
func RunModule(m *Module, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	dirs := make(map[ignoreKey]*ignoreDirective)
	for _, p := range m.Pkgs {
		pd, bad := collectIgnores(p)
		out = append(out, bad...)
		for k, v := range pd {
			dirs[k] = v
		}
	}
	keep := func(d Diagnostic) {
		if !suppressed(dirs, d) {
			out = append(out, d)
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			for _, d := range a.RunModule(m) {
				keep(d)
			}
			continue
		}
		for _, p := range m.Pkgs {
			for _, d := range a.Run(p) {
				keep(d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// ignoreDirective is a parsed, well-formed //lint:ignore comment.
type ignoreDirective struct {
	names  map[string]bool // analyzer names, or "*"
	reason string
}

// ignoreKey addresses a directive by file and line.
type ignoreKey struct {
	file string
	line int
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans a package's comments for //lint:ignore directives.
// Well-formed directives are returned keyed by position; malformed ones
// (missing reason, unknown analyzer) become "lint" diagnostics so they are
// never silently inert.
func collectIgnores(p *Package) (map[ignoreKey]*ignoreDirective, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	dirs := make(map[ignoreKey]*ignoreDirective)
	var bad []Diagnostic
	files := p.Files
	if p.Tests != nil {
		files = append(slices.Clip(files), p.Tests.Files...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignorefoo — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer>[,...] <reason>\" with a non-empty reason"})
					continue
				}
				d := &ignoreDirective{names: make(map[string]bool), reason: strings.Join(fields[1:], " ")}
				ok := true
				for _, n := range strings.Split(fields[0], ",") {
					if n != "*" && !known[n] {
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "lint",
							Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", n)})
						ok = false
						break
					}
					d.names[n] = true
				}
				if !ok {
					continue
				}
				dirs[ignoreKey{file: pos.Filename, line: pos.Line}] = d
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether a directive on the diagnostic's line, or on the
// line directly above it, covers the diagnostic's analyzer.
func suppressed(dirs map[ignoreKey]*ignoreDirective, d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir, ok := dirs[ignoreKey{file: d.Pos.Filename, line: line}]; ok {
			if dir.names["*"] || dir.names[d.Analyzer] {
				return true
			}
		}
	}
	return false
}
