// Command bench is the datacron real-time layer's benchmark: three workloads,
// eight end-to-end metrics from untraced runs of internal/core, and per-layer
// metrics from a traced shadow of core's run loop. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains the
// workloads and how the layer metrics are expected to move the end-to-end
// ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed       = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds    = fs.Float64("seconds", 25, "measuring time of one run")
		trace      = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced shadow run, per-layer metrics")
		sc         = fs.String("scale", string(scaleFull), "full or tiny (the test's smoke size)")
		repeat     = fs.Int("repeat", 3, "least number of timed closed-loop repeats per shard count")
		outDir     = fs.String("out", "bench/out", "directory for trace files and checkpoint stores")
		aa         = fs.Bool("aa", false, "run every workload twice and compare the two medians against the bounds")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sc != string(scaleFull) && *sc != string(scaleTiny) {
		return fmt.Errorf("unknown scale %q", *sc)
	}
	o := options{seed: *seed, seconds: *seconds, scale: scale(*sc), repeat: *repeat, outDir: *outDir}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profile never started; the create error is the one to report
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
			}
		}()
	}
	if *memProfile != "" {
		runtime.MemProfileRate = 4096
		defer func() {
			if err := writeAllocProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "bench: mem profile:", err)
			}
		}()
	}

	if *aa {
		return runAA(selected, o)
	}
	measure := measureEndToEnd
	if *trace != 0 {
		measure = measureLayers
	}
	var last *report
	for _, w := range selected {
		r, err := measure(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printJSON(r); err != nil {
			return err
		}
		if !r.correct() {
			return fmt.Errorf("%s: run incorrect: checks %v, failed %d of %d", w.name, r.Checks, r.Failed, r.Attempted)
		}
		last = r
	}
	// The driver's contract: the last line of standard output is one object
	// with the run's verdict and every metric of the requested kind.
	return printJSON(driverLine(last))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// driverResult is the benchmark contract's result object.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(r *report) driverResult {
	src := r.Metrics
	if src == nil {
		src = r.Layers
	}
	out := driverResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverMetric, len(src))}
	for name, s := range src {
		out.Metrics[name] = driverMetric{Value: s.Value, Unit: s.Unit}
	}
	return out
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
