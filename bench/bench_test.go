package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesCode holds BENCHMARK.json and the benchmark's own
// tables together: same workloads, same end-to-end metrics with the same
// unit, direction and bound.
func TestContractMatchesCode(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(c.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := c.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
	}
}

// TestTinySmoke runs every workload untraced and traced at the tiny scale and
// checks the shape of what comes out: every metric BENCHMARK.json declares,
// once, finite, in the declared unit; every digest and trigger-table check
// passing with no failed operation; layer shares summing to 100.
func TestTinySmoke(t *testing.T) {
	c := loadContract(t)
	o := options{seed: 1, seconds: 1, scale: scaleTiny, repeat: 2, outDir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureEndToEnd(w, o)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
			checkReport(t, e2e, e2e.Metrics, want)

			traced, err := measureLayers(w, o)
			if err != nil {
				t.Fatal(err)
			}
			want = map[string]string{}
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
			checkReport(t, traced, traced.Layers, want)

			var shares float64
			for _, l := range layers {
				shares += traced.Layers["share_pct."+l].Value
			}
			if math.Abs(shares-100) > 1 {
				t.Errorf("layer shares sum to %.2f, want 100 ± 1", shares)
			}
			if _, err := os.Stat(traced.Trace); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if n := traced.Layers["trace.spans"].Value; n == 0 {
				t.Error("traced run recorded no spans")
			}
			wantCheckpoint := w.recovery != nil
			if got := traced.Layers["share_pct.checkpoint"].Value > 0; got != wantCheckpoint {
				t.Errorf("checkpoint share present = %v, want %v", got, wantCheckpoint)
			}
		})
	}
}

func checkReport(t *testing.T, r *report, got map[string]stat, want map[string]string) {
	t.Helper()
	for name, ok := range r.Checks {
		if !ok {
			t.Errorf("check %s failed", name)
		}
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("failed %d of %d attempted", r.Failed, r.Attempted)
	}
	if r.Claim != nil {
		t.Errorf("claim = %q, want null", *r.Claim)
	}
	for name, unit := range want {
		s, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s declared in BENCHMARK.json but not emitted", name)
		case s.Unit != unit:
			t.Errorf("metric %s emitted in %q, declared in %q", name, s.Unit, unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("metric %s = %v", name, s.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared in BENCHMARK.json", name)
		}
	}
}

// TestTriggersCoverFlush checks the trigger table's own arithmetic on a tiny
// input: every critical point of a standalone generator is either triggered
// by an input record or a closing point.
func TestTriggersCoverFlush(t *testing.T) {
	in := transitInput(1, scaleTiny)
	trig := buildTriggers(in)
	perMover := 0
	for id, idx := range trig.byMover {
		perMover += len(idx)
		for i := 1; i < len(idx); i++ {
			if idx[i] < idx[i-1] {
				t.Fatalf("mover %s: trigger indices not ascending", id)
			}
		}
	}
	if perMover != trig.triggered || trig.triggered == 0 {
		t.Errorf("triggered = %d, per-mover sum %d", trig.triggered, perMover)
	}
	if len(trig.flush) == 0 {
		t.Error("no closing points: every open trajectory ends with one")
	}
}
