// Command benchrunner regenerates the paper's tables and figures: it runs
// the experiment suite of internal/experiments and prints the paper-style
// rows. Select one experiment with -exp or run everything.
//
// With -json FILE the per-experiment results (name, wall time, records/s,
// key gauges) are also written as a machine-readable JSON document.
// End-to-end performance is measured by bench/ (see BENCHMARK.json), not
// here.
//
// Usage:
//
//	benchrunner [-exp all|table1|synopses|synopses-thresholds|rdfgen|linkdisc|store|fig5a|fig5b|fig6|fig7|fig8|drift|mining|fig10|fig11|fig12|dashboard] [-scale small|full] [-metrics] [-json FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"datacron/internal/experiments"
)

// report is the top-level document -json writes.
type report struct {
	Scale     string            `json:"scale"`
	GoVersion string            `json:"goVersion"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	Rows      []experiments.Row `json:"rows"`
}

type runner struct {
	name string
	fn   func(io.Writer, experiments.Scale) error
}

func wrap[T any](fn func(io.Writer, experiments.Scale) (T, error)) func(io.Writer, experiments.Scale) error {
	return func(w io.Writer, s experiments.Scale) error {
		_, err := fn(w, s)
		return err
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (all, table1, synopses, synopses-thresholds, rdfgen, linkdisc, store, fig5a, fig5b, fig6, fig7, fig8, drift, mining, fig10, fig11, fig12, dashboard)")
	scaleName := flag.String("scale", "small", "workload scale: small or full")
	metrics := flag.Bool("metrics", false, "attach a shared metric registry and print one metric row per experiment")
	jsonPath := flag.String("json", "", "also write machine-readable per-experiment results to this file")
	flag.Parse()

	if *metrics || *jsonPath != "" {
		experiments.EnableMetrics()
	}

	scale := experiments.Small
	if *scaleName == "full" {
		scale = experiments.Full
	}

	rep := report{Scale: *scaleName, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	runners := []runner{
		{"table1", wrap(experiments.RunTable1)},
		{"synopses", wrap(experiments.RunSynopses)},
		{"synopses-thresholds", wrap(experiments.RunSynopsesThresholds)},
		{"rdfgen", wrap(experiments.RunRDFGen)},
		{"linkdisc", wrap(experiments.RunLinkDiscovery)},
		{"store", wrap(experiments.RunStore)},
		{"fig5a", wrap(experiments.RunFig5a)},
		{"fig5b", wrap(experiments.RunFig5b)},
		{"fig6", wrap(experiments.RunFig6)},
		{"fig7", wrap(experiments.RunFig7)},
		{"fig8", wrap(experiments.RunFig8)},
		{"drift", wrap(experiments.RunDrift)},
		{"mining", wrap(experiments.RunMining)},
		{"fig10", wrap(experiments.RunFig10)},
		{"fig11", wrap(experiments.RunFig11)},
		{"fig12", wrap(experiments.RunFig12)},
		{"dashboard", wrap(experiments.RunDashboard)},
	}

	matched := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		matched = true
		start := time.Now()
		if err := r.fn(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		// One snapshot-and-reset serves both outputs: the registry window
		// belongs to exactly one experiment.
		if row, ok := experiments.MetricsRow(r.name, time.Since(start)); ok {
			rep.Rows = append(rep.Rows, row)
			if *metrics {
				fmt.Printf("[%s metrics] records=%d (%.0f/s) critical=%d entities/s=%.0f compression=%.3f\n",
					row.Name, row.Records, row.RecordsPerSec, row.CriticalPoints,
					row.EntitiesPerSec, row.CompressionRatio)
			}
		}
		fmt.Printf("[%s completed in %s]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment rows to %s\n", len(rep.Rows), *jsonPath)
	}
}

// writeReport marshals the report with stable indentation and a trailing
// newline so the file diffs cleanly under version control.
func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
