package main

import (
	"fmt"
	"math"
)

// metricDef is one metric of BENCHMARK.json as the benchmark knows it. Bound
// is the relative worsening that counts as a regression; per-layer metrics
// have none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEndMetrics mirrors BENCHMARK.json's end_to_end list; the package test
// holds the two together. The bounds are set from the spread observed over
// ten seeds, see README.md.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.20},
	{"records_per_s_shards2", "1/s", "higher", 0.20},
	{"allocs_per_record", "count", "lower", 0.15},
	{"bytes_per_record", "B", "lower", 0.20},
	{"cpu_us_per_record", "us", "lower", 0.20},
	{"emit_lag_p50_ms", "ms", "lower", 0.25},
}

// worsening is how much worse b is than a, as a share of a: positive when b
// is worse in the metric's direction.
func (d metricDef) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRow is one (workload, metric) comparison of two runs of the same code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Diff     float64 `json:"relative_difference"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// runAA runs every selected workload twice on this binary and compares the
// two medians of every end-to-end metric against its bound. Two runs of the
// same code that differ by more than the bound mean the bound cannot resolve
// a change of that size: UNRESOLVED.
func runAA(ws []workload, o options) error {
	var rows []aaRow
	unresolved := 0
	for _, w := range ws {
		var runs [2]*report
		for i := range runs {
			r, err := measureEndToEnd(w, o)
			if err != nil {
				return fmt.Errorf("%s: run %d: %w", w.name, i+1, err)
			}
			if !r.correct() {
				return fmt.Errorf("%s: run %d incorrect: checks %v, failed %d", w.name, i+1, r.Checks, r.Failed)
			}
			runs[i] = r
		}
		for _, d := range endToEndMetrics {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			row := aaRow{Workload: w.name, Metric: d.name, First: a, Second: b,
				Diff: d.worsening(a, b), Bound: d.bound, Verdict: "OK"}
			if math.Abs(row.Diff) > d.bound {
				row.Verdict = "UNRESOLVED"
				unresolved++
			}
			rows = append(rows, row)
			fmt.Printf("%-10s %-24s %14.4f %14.4f %+8.2f%% (bound %4.0f%%) %s\n",
				row.Workload, row.Metric, a, b, 100*row.Diff, 100*d.bound, row.Verdict)
		}
	}
	return printJSON(struct {
		Rows       []aaRow `json:"rows"`
		Unresolved int     `json:"unresolved"`
		Claim      *string `json:"claim"`
	}{rows, unresolved, nil})
}
