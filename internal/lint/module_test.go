package lint

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestGoroleak(t *testing.T) {
	runFixture(t, "goroleak", "goroleak", "datacron/internal/lintfixture/goroleak")
}

func TestLockblock(t *testing.T) {
	runFixture(t, "lockblock", "lockblock", "datacron/internal/lintfixture/lockblock")
}

func TestAtomicSafety(t *testing.T) {
	runFixture(t, "atomicsafety", "atomicsafety", "datacron/internal/lintfixture/atomicsafety")
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, "hotalloc", "hotalloc", "datacron/internal/shard/lintfixture")
}

func TestHotAllocExtraRoots(t *testing.T) {
	// Loaded under internal/mobility, the fixture's AppendBinary/Decode
	// functions are explicit roots from HotPathExtraRoots despite matching
	// no root name prefix.
	runFixture(t, "hotalloc", "hotallocroots", "datacron/internal/mobility/lintfixture")
}

func TestHotAllocEmitPathRoots(t *testing.T) {
	// The critical-point emit path's three entry points — rdf AppendNT,
	// rdfgen Generate, core flushBatch — are extra roots, each in its own
	// package: one fixture per package, loaded under that package's path.
	for _, pkg := range []string{"rdf", "rdfgen", "core"} {
		runFixture(t, "hotalloc", "hotallocemit/"+pkg, "datacron/internal/"+pkg+"/lintfixture")
	}
	// Loaded elsewhere, the same functions are not roots.
	p := loadFixture(t, "hotallocemit/rdf", "datacron/internal/va/lintfixture")
	if diags := runAnalyzer(Lookup("hotalloc"), p); len(diags) != 0 {
		t.Fatalf("hotalloc fired outside the emit-path packages: %v", diags)
	}
}

func TestHotAllocKernelRoots(t *testing.T) {
	// The per-trajectory kernels' entry points — flp Observe/Predict,
	// synopses Process, lowlevel Observe — are extra roots, each in its own
	// package: one fixture per package, loaded under that package's path.
	for _, pkg := range []string{"flp", "synopses", "lowlevel"} {
		runFixture(t, "hotalloc", "hotallockernels/"+pkg, "datacron/internal/"+pkg+"/lintfixture")
	}
	// Loaded elsewhere, the same functions are not roots.
	p := loadFixture(t, "hotallockernels/flp", "datacron/internal/va/lintfixture")
	if diags := runAnalyzer(Lookup("hotalloc"), p); len(diags) != 0 {
		t.Fatalf("hotalloc fired outside the kernel packages: %v", diags)
	}
}

func TestHotAllocExtraRootsOutOfScope(t *testing.T) {
	// The same fixture under a package with no extra roots has no
	// reachability roots at all, so nothing is reported.
	p := loadFixture(t, "hotallocroots", "datacron/internal/va/lintfixture")
	if diags := runAnalyzer(Lookup("hotalloc"), p); len(diags) != 0 {
		t.Fatalf("hotalloc fired outside the extra-root packages: %v", diags)
	}
}

func TestHotAllocOutOfScope(t *testing.T) {
	// The same fixture outside the shard/core scope has no hot-path
	// roots, so nothing is reachable and nothing is reported: per-record
	// allocation discipline only binds the processing plane.
	p := loadFixture(t, "hotalloc", "datacron/internal/va/lintfixture")
	if diags := runAnalyzer(Lookup("hotalloc"), p); len(diags) != 0 {
		t.Fatalf("hotalloc fired outside the hot-path scope: %v", diags)
	}
}

// TestCallGraphSharedBuild pins the tentpole framework contract: however
// many call-graph-aware analyzers run over one module, the graph is built
// exactly once and shared.
func TestCallGraphSharedBuild(t *testing.T) {
	p1 := loadFixture(t, "goroleak", "datacron/internal/lintfixture/goroleak")
	p2 := loadFixture(t, "lockblock", "datacron/internal/lintfixture/lockblock")
	m := NewModule([]*Package{p1, p2})

	graphUsers := 0
	for _, a := range Analyzers() {
		if a.RunModule != nil {
			graphUsers++
		}
	}
	if graphUsers < 4 {
		t.Fatalf("expected at least 4 module-wide analyzers, have %d", graphUsers)
	}

	RunModule(m, Analyzers())
	if got := m.GraphBuilds(); got != 1 {
		t.Fatalf("call graph built %d times for %d module analyzers, want exactly 1", got, graphUsers)
	}
	if len(m.Graph().All()) == 0 {
		t.Fatal("call graph is empty")
	}
	if got := m.GraphBuilds(); got != 1 {
		t.Fatalf("Graph() after the run rebuilt the graph (%d builds)", got)
	}
}

// TestCallGraphEdges sanity-checks the graph itself on the goroleak fixture:
// Worker.Start must have a spawn site resolving to runLoop, and the runLoop
// node must exist.
func TestCallGraphEdges(t *testing.T) {
	p := loadFixture(t, "goroleak", "datacron/internal/lintfixture/goroleak")
	g := NewModule([]*Package{p}).Graph()
	var start *FuncNode
	for _, n := range g.All() {
		if n.Obj.Name() == "Start" && strings.Contains(n.Obj.FullName(), "Worker") {
			start = n
		}
	}
	if start == nil {
		t.Fatal("no node for (*Worker).Start")
	}
	if len(start.Spawns) != 1 {
		t.Fatalf("(*Worker).Start has %d spawn sites, want 1", len(start.Spawns))
	}
	sp := start.Spawns[0]
	if sp.Callee == nil || sp.Callee.Name() != "runLoop" {
		t.Fatalf("spawn callee = %v, want runLoop", sp.Callee)
	}
	if g.Node(sp.Callee) == nil {
		t.Fatal("runLoop is not in the graph")
	}
}

func mkDiag(file string, line int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestBaselinePartition(t *testing.T) {
	root := filepath.FromSlash("/mod")
	f := filepath.Join(root, "internal", "a", "f.go")
	known1 := mkDiag(f, 10, "lockblock", "send under lock")
	known2a := mkDiag(f, 20, "hotalloc", "sprintf in loop")
	known2b := mkDiag(f, 30, "hotalloc", "sprintf in loop")

	b := NewBaseline([]Diagnostic{known1, known2a, known2b}, root)
	if len(b.Findings) != 2 {
		t.Fatalf("baseline has %d entries, want 2 (same-message findings aggregate)", len(b.Findings))
	}

	// Same findings at shifted lines stay known; a third same-message
	// occurrence and a brand-new message are new.
	current := []Diagnostic{
		mkDiag(f, 12, "lockblock", "send under lock"),
		mkDiag(f, 21, "hotalloc", "sprintf in loop"),
		mkDiag(f, 33, "hotalloc", "sprintf in loop"),
		mkDiag(f, 40, "hotalloc", "sprintf in loop"), // third occurrence: over budget
		mkDiag(f, 50, "goroleak", "leaked goroutine"),
	}
	newDiags, knownDiags := b.Partition(current, root)
	if len(knownDiags) != 3 {
		t.Fatalf("known = %d, want 3: %v", len(knownDiags), knownDiags)
	}
	if len(newDiags) != 2 {
		t.Fatalf("new = %d, want 2: %v", len(newDiags), newDiags)
	}
	for _, d := range newDiags {
		if d.Pos.Line != 40 && d.Pos.Line != 50 {
			t.Errorf("unexpected new finding at line %d", d.Pos.Line)
		}
	}
}

func TestBaselineRoundtrip(t *testing.T) {
	root := t.TempDir()
	f := filepath.Join(root, "pkg", "x.go")
	diags := []Diagnostic{
		mkDiag(f, 5, "goroleak", "leak"),
		mkDiag(f, 9, "lockblock", "block"),
	}
	path := filepath.Join(root, "lint.baseline.json")
	if err := NewBaseline(diags, root).Write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	newDiags, known := b.Partition(diags, root)
	if len(newDiags) != 0 || len(known) != 2 {
		t.Fatalf("roundtrip partition: new=%d known=%d, want 0/2", len(newDiags), len(known))
	}
	// File keys must be slash-relative so the baseline is portable.
	for _, fd := range b.Findings {
		if strings.Contains(fd.File, "\\") || filepath.IsAbs(fd.File) {
			t.Errorf("baseline file key %q is not a relative slash path", fd.File)
		}
	}
}

func TestLoadBaselineMissing(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing baseline must yield an empty one, got error %v", err)
	}
	if len(b.Findings) != 0 {
		t.Fatalf("missing baseline yielded %d findings", len(b.Findings))
	}
}

func TestEncodeSARIF(t *testing.T) {
	root := filepath.FromSlash("/mod")
	f := filepath.Join(root, "internal", "a", "f.go")
	diags := []Diagnostic{
		mkDiag(f, 10, "goroleak", "leaked goroutine"),
		mkDiag(f, 20, "hotalloc", "sprintf in loop"),
	}
	known := map[*Diagnostic]bool{&diags[1]: true}
	data, err := EncodeSARIF(diags, known, root)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Baseline  string `json:"baselineState"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Fatalf("not a SARIF 2.1.0 log: version=%q schema=%q", log.Version, log.Schema)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "datacronlint" {
		t.Fatalf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"goroleak", "lockblock", "atomicsafety", "hotalloc", "determinism"} {
		if !ruleIDs[want] {
			t.Errorf("rules missing %q", want)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	if run.Results[0].Baseline != "new" || run.Results[1].Baseline != "unchanged" {
		t.Errorf("baselineState = %q/%q, want new/unchanged", run.Results[0].Baseline, run.Results[1].Baseline)
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/a/f.go" || loc.Region.StartLine != 10 {
		t.Errorf("location = %q:%d, want internal/a/f.go:10", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

func TestEncodeJSON(t *testing.T) {
	root := filepath.FromSlash("/mod")
	f := filepath.Join(root, "internal", "a", "f.go")
	diags := []Diagnostic{mkDiag(f, 7, "atomicsafety", "plain access")}
	data, err := EncodeJSON(diags, nil, root)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out []JSONFinding
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 1 || out[0].File != "internal/a/f.go" || out[0].Line != 7 || out[0].Analyzer != "atomicsafety" {
		t.Fatalf("unexpected JSON payload: %+v", out)
	}
}
