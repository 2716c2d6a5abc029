package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// options are the knobs of one benchmark run.
type options struct {
	seed    int64
	seconds float64 // measuring time of the run
	scale   scale
	repeat  int    // least number of timed closed-loop repeats per shard count
	outDir  string // checkpoint stores and trace files
}

// progress reports where a run is, on standard error: standard output
// carries only results.
func progress(workload, what string) {
	fmt.Fprintf(os.Stderr, "bench: %s %s: %s\n", time.Now().Format("15:04:05.000"), workload, what)
}

// setups is how many times a run builds its input and pipeline to time it.
const setups = 3

// stat is one reported metric: the median of its samples with their spread.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// series collects the samples of one metric.
type series []float64

func (s series) stat(unit string) stat {
	if len(s) == 0 {
		return stat{Unit: unit}
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	return stat{Value: med, Unit: unit, Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
}

func (s series) median() float64 { return s.stat("").Value }

// medianOf is the median of a few integer-valued samples (durations, sizes).
func medianOf[T ~int | ~int64](vs []T) float64 {
	s := make(series, len(vs))
	for i, v := range vs {
		s[i] = float64(v)
	}
	return s.median()
}

// one is a metric measured once in the run.
func one(v float64, unit string) stat { return stat{Value: v, Unit: unit, Min: v, Max: v, N: 1} }

// env records where and on what a report was measured.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       int64   `json:"seed"`
	Scale      scale   `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Records    int     `json:"records"`
	LiveRate   int     `json:"live_rate_per_s"`
}

func newEnv(o options, records, rate int) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Records: records, LiveRate: rate,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// report is everything one run of one workload produced. Metrics holds the
// end-to-end metrics of an untraced run, Layers the per-layer metrics of a
// traced one; a run fills one of the two.
type report struct {
	Workload  string          `json:"workload"`
	Why       string          `json:"why"`
	Env       env             `json:"env"`
	Metrics   map[string]stat `json:"metrics,omitempty"`
	Layers    map[string]stat `json:"layers,omitempty"`
	Checks    map[string]bool `json:"checks"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	FailedPct float64         `json:"failed_ops_pct"`
	Trace     string          `json:"trace_file,omitempty"`
	// Claim is always null: this benchmark states numbers, a later change
	// that moves one names the metric and the workload.
	Claim *string `json:"claim"`
}

func (r *report) correct() bool {
	for _, ok := range r.Checks {
		if !ok {
			return false
		}
	}
	return r.Failed == 0
}

// closedLoop holds the timed repeats of one shard count.
type closedLoop struct {
	recsPerS, allocs, bytes, cpuUs series
}

func (c *closedLoop) add(st runStats, n int) {
	c.recsPerS = append(c.recsPerS, float64(n)/st.wall.Seconds())
	c.allocs = append(c.allocs, float64(st.mallocs)/float64(n))
	c.bytes = append(c.bytes, float64(st.bytes)/float64(n))
	c.cpuUs = append(c.cpuUs, float64(st.cpu.Microseconds())/float64(n))
}

// session is what the untraced and the traced run share: one generated
// input, the reference output of a clean warm-up run, the trigger table, and
// the running tally of attempted and failed operations and of checks.
type session struct {
	w    workload
	o    options
	in   input
	n    int           // records offered per run
	spec *recoverySpec // nil unless the workload checkpoints and crashes
	rate int           // live phase, records per second
	ref  digests       // the warm-up's output: what every later run must publish
	trig *triggers

	attempted, failed int64
	checks            map[string]bool
}

// newSession runs the untimed warm-up. It is a clean run even on the
// recovery workload: its output is what a crashed and recovered run must
// reproduce.
func newSession(w workload, o options, in input) (*session, error) {
	s := &session{w: w, o: o, in: in, n: len(in.reports), rate: w.rate(o.scale), checks: map[string]bool{}}
	if w.recovery != nil {
		s.spec = w.recovery(o.scale)
	}
	progress(w.name, "warm-up")
	warm, err := runClosed(in, nil, 1, false, o.outDir)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.ref = warm.out
	s.trig = buildTriggers(in)
	return s, nil
}

// check records a named verdict; once false it stays false.
func (s *session) check(name string, ok bool) {
	if prev, seen := s.checks[name]; seen && !prev {
		return
	}
	s.checks[name] = ok
}

// offered counts one run over the whole input that took in rawIn records.
func (s *session) offered(rawIn int64) {
	s.attempted += int64(s.n)
	s.failed += int64(s.n) - rawIn
	s.check("raw_in_equals_offered", rawIn == int64(s.n))
}

// closed is one closed-loop run of core, checked against the reference.
func (s *session) closed(shards int, noObs bool) (runStats, error) {
	st, err := runClosed(s.in, s.spec, shards, noObs, s.o.outDir)
	if err != nil {
		return st, fmt.Errorf("closed loop shards=%d: %w", shards, err)
	}
	s.offered(st.rawIn)
	s.check(fmt.Sprintf("digest_shards%d_equals_reference", shards), st.out.equal(s.ref))
	if s.spec != nil {
		s.check("one_kill_one_restart", st.kills == 1 && st.restarts == 1)
	}
	return st, nil
}

// liveDur is how long the live phase's schedule is.
func (s *session) liveDur() time.Duration {
	return time.Duration(float64(s.n) / float64(s.rate) * float64(time.Second))
}

// live is the open-loop phase, checked against the reference.
func (s *session) live() (liveStats, error) {
	progress(s.w.name, "live phase")
	runtime.GC()
	st, err := runLive(s.in, s.spec, s.rate, s.trig, s.o.outDir)
	if err != nil {
		return st, fmt.Errorf("live phase: %w", err)
	}
	s.offered(st.rawIn)
	s.failed += st.notDrained
	s.check("live_synopses_digest_equals_closed_loop", st.out.sameLive(s.ref))
	s.check("trigger_table_covers_synopses", st.uncovered == 0 && len(st.lagMs)+st.warmupLags == s.trig.triggered)
	return st, nil
}

// report closes the session.
func (s *session) report() *report {
	return &report{
		Workload: s.w.name, Why: s.w.why, Env: newEnv(s.o, s.n, s.rate),
		Checks: s.checks, Attempted: s.attempted, Failed: s.failed,
		FailedPct: 100 * float64(s.failed) / float64(s.attempted),
	}
}

// measureEndToEnd is the untraced run: set-up timed several times, one
// untimed warm-up that also fixes the reference output, timed closed-loop
// repeats alternating shards=1 and shards=2 for as long as the run's time
// allows, and the open-loop phase.
func measureEndToEnd(w workload, o options) (*report, error) {
	progress(w.name, "set-up")
	var setup series
	var in input
	for i := 0; i < setups; i++ {
		start := time.Now()
		in = w.input(o.seed, o.scale)
		if _, err := newPipeline(in, 2, false); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	s, err := newSession(w, o, in)
	if err != nil {
		return nil, err
	}

	progress(w.name, "closed-loop repeats")
	budget := time.Duration(o.seconds*float64(time.Second)) - s.liveDur()
	var one1, two closedLoop
	start := time.Now()
	var pair time.Duration
	for i := 0; i < o.repeat || (i < 64 && time.Since(start)+pair <= budget); i++ {
		t := time.Now()
		for shards, into := range []*closedLoop{&one1, &two} {
			st, err := s.closed(shards+1, false)
			if err != nil {
				return nil, err
			}
			into.add(st, s.n)
		}
		pair = time.Since(t)
	}

	live, err := s.live()
	if err != nil {
		return nil, err
	}
	r := s.report()
	r.Metrics = map[string]stat{
		"setup_s":               setup.stat("s"),
		"records_per_s":         one1.recsPerS.stat("1/s"),
		"records_per_s_shards2": two.recsPerS.stat("1/s"),
		"allocs_per_record":     one1.allocs.stat("count"),
		"bytes_per_record":      one1.bytes.stat("B"),
		"cpu_us_per_record":     two.cpuUs.stat("us"),
		"emit_lag_p50_ms":       lagStat(live.lagMs, 0.50),
	}
	return r, nil
}

// lagStat reports a percentile of the live phase's lag samples; min and max
// are the sample extremes, n the sample count.
func lagStat(sorted []float64, q float64) stat {
	if len(sorted) == 0 {
		return stat{Unit: "ms"}
	}
	return stat{Value: percentile(sorted, q), Unit: "ms", Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
}
