package lint

import (
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
