// Command datacronlint runs the project's static-analysis suite
// (internal/lint) over the module and reports invariant violations with
// file:line:column positions.
//
// Usage:
//
//	datacronlint [-list] [-only=name,name] [packages]
//
// With no package arguments (or "./...") the whole module is analyzed.
// Arguments are directories relative to the current working directory.
//
// Every finding fails the run; the only way to accept one is a
// //lint:ignore <analyzer> <reason> directive at the site. Exit codes:
//
//	0  no findings
//	1  findings
//	2  usage or load error
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"datacron/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	listFlag := flag.Bool("list", false, "print available analyzers and exit")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *onlyFlag != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*onlyFlag, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "datacronlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacronlint:", err)
		return 2
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacronlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacronlint:", err)
		return 2
	}

	pkgs, err := loadTargets(loader, root, cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacronlint:", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "datacronlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// loadTargets resolves the positional arguments to packages. No arguments or
// "./..." means the whole module; otherwise each argument is a directory.
func loadTargets(loader *lint.Loader, root, cwd string, args []string) ([]*lint.Package, error) {
	all := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "..." {
			all = true
		}
	}
	if all {
		return loader.LoadAll()
	}
	var pkgs []*lint.Package
	seen := make(map[string]bool)
	for _, arg := range args {
		dir := arg
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		dir = filepath.Clean(dir)
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside the module rooted at %s", arg, root)
		}
		importPath := loader.ModulePath()
		if rel != "." {
			importPath = loader.ModulePath() + "/" + filepath.ToSlash(rel)
		}
		if seen[importPath] {
			continue
		}
		seen[importPath] = true
		p, err := loader.LoadPackageDir(dir, importPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
