package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Loader parses and type-checks every package of one Go module using only
// the standard library. Module-local imports are resolved from the module
// tree; standard-library imports are type-checked from GOROOT source via
// go/importer's "source" importer, so no compiled export data or external
// tooling is required.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer

	pkgs    map[string]*loadEntry // by import path
	loading map[string]bool       // cycle detection
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader returns a loader rooted at the directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks stdlib packages from GOROOT source
	// through build.Default. Cgo variants of stdlib files cannot be
	// type-checked without running the cgo tool, so force the pure-Go
	// build for the analysis universe.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*loadEntry),
		loading:    make(map[string]bool),
	}, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadAll walks the module tree and loads every package that contains
// non-test Go files. Directories named testdata, hidden directories, and
// vendor trees are skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modulePath
		if rel != "." {
			importPath = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(importPath)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", importPath, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadPackageDir type-checks a single directory as the given import path.
// The path does not need to live under the module root; analyzer tests use
// this to load testdata fixtures under a synthetic import path.
func (l *Loader) LoadPackageDir(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath)
}

// Import implements types.Importer: module-local packages come from the
// module tree, everything else from the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(importPath string) (*Package, error) {
	if e, ok := l.pkgs[importPath]; ok {
		return e.pkg, e.err
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modulePath), "/")
	if rel == "" {
		rel = "."
	}
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	l.loading[importPath] = true
	p, err := l.loadDir(dir, importPath)
	delete(l.loading, importPath)
	l.pkgs[importPath] = &loadEntry{pkg: p, err: err}
	return p, err
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	names, testNames, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	rel := importPath
	if r, ok := strings.CutPrefix(importPath, l.modulePath+"/"); ok {
		rel = r
	} else if importPath == l.modulePath {
		rel = "."
	}
	p := &Package{
		ImportPath: importPath,
		RelPath:    rel,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	// In-package test files (package x, not x_test) are type-checked with
	// the package's own files into a view of their own, which only the
	// determinism analyzer reads.
	tests, err := l.parse(dir, testNames)
	if err != nil {
		return nil, err
	}
	tests = slices.DeleteFunc(tests, func(f *ast.File) bool { return f.Name.Name != tpkg.Name() })
	if len(tests) > 0 {
		ttpkg, tinfo, err := l.check(importPath, append(slices.Clip(files), tests...))
		if err != nil {
			return nil, err
		}
		t := *p
		t.Files, t.Types, t.Info, t.Tests = tests, ttpkg, tinfo, nil
		p.Tests = &t
	}
	return p, nil
}

func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	return tpkg, info, err
}

// goFileNames lists the non-test and the test Go files of dir that match
// the current build constraints, each in lexical order.
func goFileNames(dir string) (names, testNames []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case !match:
		case strings.HasSuffix(name, "_test.go"):
			testNames = append(testNames, name)
		default:
			names = append(names, name)
		}
	}
	return names, testNames, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
