// Command benchrunner regenerates the paper's tables and figures: it runs
// the experiment suite of internal/experiments and prints the paper-style
// rows. Select one experiment with -exp or run everything.
//
// End-to-end performance is measured by bench/ (see BENCHMARK.json), not
// here.
//
// Usage:
//
//	benchrunner [-exp all|table1|synopses|synopses-thresholds|rdfgen|linkdisc|store|fig5a|fig5b|fig6|fig7|fig8|drift|mining|fig10|fig11|fig12|dashboard] [-scale small|full] [-metrics]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"datacron/internal/experiments"
)

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
	flag.Parse()

	if *metrics {
		experiments.EnableMetrics()
	}

	scale := experiments.Small
	if *scaleName == "full" {
		scale = experiments.Full
	}

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
		if row, ok := experiments.MetricsRow(r.name); ok {
			fmt.Printf("[%s metrics] records=%d (%.0f/s) critical=%d entities/s=%.0f compression=%.3f\n",
				row.Name, row.Records, row.RecordsPerSec, row.CriticalPoints,
				row.EntitiesPerSec, row.CompressionRatio)
		}
		fmt.Printf("[%s completed in %s]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
