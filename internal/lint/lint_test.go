package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader returns one Loader per test binary so the standard library is
// type-checked from source only once.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above test working directory")
		}
		dir = parent
	}
}

// loadFixture type-checks testdata/<name> under the given synthetic import
// path (which controls RelPath, and with it the determinism scope).
func loadFixture(t *testing.T, name, importPath string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := l.LoadPackageDir(filepath.Join("testdata", name), importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

// want is one expectation parsed from a fixture comment of the form
//
//	// want "substring"
//	// want 9:"substring"       (also asserts the diagnostic column)
//
// Multiple clauses may follow a single want comment.
type want struct {
	col     int // 0 when unasserted
	substr  string
	matched bool
}

var wantClause = regexp.MustCompile(`(?:(\d+):)?"((?:[^"\\]|\\.)*)"`)

func parseWants(t *testing.T, path string) map[int][]*want {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	wants := make(map[int][]*want)
	for i, line := range strings.Split(string(data), "\n") {
		_, spec, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, m := range wantClause.FindAllStringSubmatch(spec, -1) {
			w := &want{substr: m[2]}
			if m[1] != "" {
				w.col, _ = strconv.Atoi(m[1])
			}
			wants[i+1] = append(wants[i+1], w)
		}
	}
	return wants
}

// runAnalyzer applies one analyzer — per-package or module-wide — to a
// single package.
func runAnalyzer(a *Analyzer, p *Package) []Diagnostic {
	if a.RunModule != nil {
		return a.RunModule(NewModule([]*Package{p}))
	}
	return a.Run(p)
}

// runFixture applies one analyzer to a fixture package and checks its
// diagnostics against the fixture's want comments: every diagnostic must be
// expected at its exact line (and column, when asserted), and every
// expectation must be hit.
func runFixture(t *testing.T, analyzerName, fixture, importPath string) {
	t.Helper()
	a := Lookup(analyzerName)
	if a == nil {
		t.Fatalf("no analyzer %q", analyzerName)
	}
	p := loadFixture(t, fixture, importPath)
	type fileLine struct {
		file string
		line int
	}
	wants := make(map[fileLine][]*want)
	files := slices.Clip(p.Files)
	if p.Tests != nil {
		files = append(files, p.Tests.Files...)
	}
	for _, f := range files {
		path := p.Fset.Position(f.Pos()).Filename
		for line, ws := range parseWants(t, path) {
			wants[fileLine{path, line}] = append(wants[fileLine{path, line}], ws...)
		}
	}
	for _, d := range runAnalyzer(a, p) {
		matched := false
		for _, w := range wants[fileLine{d.Pos.Filename, d.Pos.Line}] {
			if !w.matched && strings.Contains(d.Message, w.substr) && (w.col == 0 || w.col == d.Pos.Column) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
		}
	}
	for at, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s:%d: want message containing %q", filepath.Base(at.file), at.line, w.substr)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	runFixture(t, "determinism", "determinism", "datacron/internal/synopses/lintfixture")
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same fixture outside the replayable scope must produce nothing:
	// wall clocks and map iteration are fine in non-replayed code.
	p := loadFixture(t, "determinism", "datacron/internal/va/lintfixture")
	if diags := Lookup("determinism").Run(p); len(diags) != 0 {
		t.Fatalf("determinism fired outside the replayable scope: %v", diags)
	}
}

func TestDeterminismTests(t *testing.T) {
	runFixture(t, "determinism", "determinismtests", "datacron/internal/lowlevel/lintfixture")
}

func TestDeterminismTestsOutOfScope(t *testing.T) {
	// Outside the replayable scope only the in-package test file is read:
	// its map-ordered draws are flagged, the operator file's is not, and
	// the one under //lint:ignore is dropped.
	p := loadFixture(t, "determinismtests", "datacron/internal/gen/lintfixture")
	diags := Run([]*Package{p}, []*Analyzer{Lookup("determinism")})
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Errorf("determinism fired on operator code outside the replayable scope: %s", d)
		}
	}
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want the test file's 4: %v", len(diags), diags)
	}
}

func TestObsClock(t *testing.T) {
	runFixture(t, "obsclock", "obsclock", "datacron/internal/msg/lintfixture")
}

func TestObsClockSuppression(t *testing.T) {
	// Run (with directive filtering) must drop the finding covered by the
	// fixture's //lint:ignore obsclock directive; the three bare wall-clock
	// reads survive.
	p := loadFixture(t, "obsclock", "datacron/internal/msg/lintfixture")
	diags := Run([]*Package{p}, []*Analyzer{Lookup("obsclock")})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 (one suppressed): %v", len(diags), diags)
	}
}

func TestObsClockOutOfScope(t *testing.T) {
	// The same fixture outside the instrumented scope must produce nothing:
	// experiments and CLIs may read the wall clock freely.
	p := loadFixture(t, "obsclock", "datacron/internal/experiments/lintfixture")
	if diags := Lookup("obsclock").Run(p); len(diags) != 0 {
		t.Fatalf("obsclock fired outside the instrumented scope: %v", diags)
	}
}

func TestSpanEnd(t *testing.T) {
	runFixture(t, "spanend", "spanend", "datacron/internal/core/lintfixture")
}

func TestSpanEndOutOfScope(t *testing.T) {
	// The same fixture outside the instrumented scope must produce nothing:
	// experiments and CLIs may drop spans freely (they never have a tracer).
	p := loadFixture(t, "spanend", "datacron/internal/experiments/lintfixture")
	if diags := Lookup("spanend").Run(p); len(diags) != 0 {
		t.Fatalf("spanend fired outside the instrumented scope: %v", diags)
	}
}

func TestLockSafety(t *testing.T) {
	runFixture(t, "locksafety", "locksafety", "datacron/internal/lintfixture/locksafety")
}

func TestSnapshotPair(t *testing.T) {
	runFixture(t, "snapshotpair", "snapshotpair", "datacron/internal/lintfixture/snapshotpair")
}

func TestErrDrop(t *testing.T) {
	runFixture(t, "errdrop", "errdrop", "datacron/internal/lintfixture/errdrop")
}

func TestHTTPServer(t *testing.T) {
	runFixture(t, "httpserver", "httpserver", "datacron/internal/lintfixture/httpserver")
}

func TestHTTPServerSuppression(t *testing.T) {
	// Run (with directive filtering) must drop the finding covered by the
	// fixture's //lint:ignore httpserver directive; the rest survive.
	p := loadFixture(t, "httpserver", "datacron/internal/lintfixture/httpserver")
	raw := Lookup("httpserver").Run(p)
	filtered := Run([]*Package{p}, []*Analyzer{Lookup("httpserver")})
	if len(filtered) != len(raw)-1 {
		t.Fatalf("got %d diagnostics after filtering, want %d (one suppressed): %v",
			len(filtered), len(raw)-1, filtered)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	p := loadFixture(t, "ignore", "datacron/internal/cer/lintfixture")
	diags := Run([]*Package{p}, []*Analyzer{Lookup("determinism")})

	byLine := make(map[int][]Diagnostic)
	for _, d := range diags {
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d)
	}
	find := func(line int, analyzer, substr string) bool {
		for _, d := range byLine[line] {
			if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
				return true
			}
		}
		return false
	}

	// Well-formed suppressions (same line, line above, wildcard) must
	// remove the determinism findings entirely.
	for _, line := range []int{suppressSameLine, suppressAboveLine, suppressWildcardLine} {
		if len(byLine[line]) != 0 {
			t.Errorf("line %d: suppression failed, got %v", line, byLine[line])
		}
	}

	// A directive without a reason is reported and does NOT suppress.
	if !find(missingReasonLine, "lint", "non-empty reason") {
		t.Errorf("line %d: expected a lint diagnostic about the missing reason", missingReasonLine)
	}
	if !find(missingReasonLine, "determinism", "time.Now") {
		t.Errorf("line %d: a reasonless directive must not suppress the finding", missingReasonLine)
	}

	// A directive naming an unknown analyzer is reported and does not
	// suppress either.
	if !find(unknownAnalyzerLine, "lint", "unknown analyzer") {
		t.Errorf("line %d: expected a lint diagnostic about the unknown analyzer", unknownAnalyzerLine)
	}
	if !find(unknownAnalyzerLine, "determinism", "time.Now") {
		t.Errorf("line %d: an unknown-analyzer directive must not suppress the finding", unknownAnalyzerLine)
	}
}

// Line anchors into testdata/ignore/fixture.go; keep in sync with the file.
const (
	suppressSameLine     = 6
	suppressAboveLine    = 11
	suppressWildcardLine = 15
	missingReasonLine    = 19
	unknownAnalyzerLine  = 23
)

// TestExactPosition pins one finding per analyzer to an exact
// file:line:column, so position regressions in the framework are caught
// directly rather than through substring matching.
func TestExactPosition(t *testing.T) {
	cases := []struct {
		analyzer, fixture, importPath string
		file                          string
		line, col                     int
	}{
		{"determinism", "determinism", "datacron/internal/synopses/lintfixture", "fixture.go", 11, 9},
		{"errdrop", "errdrop", "datacron/internal/lintfixture/errdrop", "fixture.go", 11, 2},
	}
	for _, tc := range cases {
		p := loadFixture(t, tc.fixture, tc.importPath)
		found := false
		for _, d := range Lookup(tc.analyzer).Run(p) {
			if filepath.Base(d.Pos.Filename) == tc.file && d.Pos.Line == tc.line && d.Pos.Column == tc.col {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no diagnostic at %s:%d:%d", tc.analyzer, tc.file, tc.line, tc.col)
		}
	}
}

// TestModuleIsClean runs the full suite over the real module: the tree must
// have no findings at all (make lint enforces the same); a finding is
// accepted only by a //lint:ignore directive at its site.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("finding: %s", d)
	}
}

func TestBoundedChan(t *testing.T) {
	runFixture(t, "boundedchan", "boundedchan", "datacron/internal/msg/lintfixture")
}

func TestBoundedChanSuppression(t *testing.T) {
	// Run (with directive filtering) must drop the finding covered by the
	// fixture's //lint:ignore boundedchan directive; the undocumented
	// channel capacity and the two growing-state appends survive.
	p := loadFixture(t, "boundedchan", "datacron/internal/msg/lintfixture")
	diags := Run([]*Package{p}, []*Analyzer{Lookup("boundedchan")})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 (one suppressed): %v", len(diags), diags)
	}
}

func TestBoundedChanOutOfScope(t *testing.T) {
	// The same fixture outside the backpressure plane must produce nothing:
	// packages off the ingest path may size buffers however they like.
	p := loadFixture(t, "boundedchan", "datacron/internal/admin/lintfixture")
	if diags := Lookup("boundedchan").Run(p); len(diags) != 0 {
		t.Fatalf("boundedchan fired outside the bounded-queue scope: %v", diags)
	}
}

func TestShardDeterminism(t *testing.T) {
	runFixture(t, "sharddeterminism", "sharddeterminism", "datacron/internal/synopses/lintfixture")
}

func TestShardDeterminismOutOfScope(t *testing.T) {
	// The same fixture outside the shard-worker scope must produce nothing:
	// packages never reached from worker goroutines may keep package-level
	// state (the admin server, experiments, CLIs).
	p := loadFixture(t, "sharddeterminism", "datacron/internal/admin/lintfixture")
	if diags := Lookup("sharddeterminism").Run(p); len(diags) != 0 {
		t.Fatalf("sharddeterminism fired outside the shard-worker scope: %v", diags)
	}
}
