// Command datacron runs the full pipeline on a synthetic scenario: it
// generates surveillance traffic, streams it through the real-time layer
// (in-situ processing, synopses, RDF-ification, link discovery, future
// location prediction, event forecasting), builds the knowledge graph in
// the batch layer, and prints the run summary, a dashboard snapshot and an
// example spatio-temporal star query.
//
// With -checkpoint-dir the real-time layer runs under coordinated
// checkpointing: offsets, output positions and operator state are captured
// periodically, and a crashed run restarted with the same directory resumes
// from the latest valid checkpoint with effectively-once output. The
// -fault-seed/-fault-kill flags inject deterministic crashes to drill the
// recovery path.
//
// With -admin the pipeline serves its operational plane over HTTP:
// /metrics (Prometheus text exposition), /statz (JSON), /healthz, /readyz,
// /traces and /debug/pprof/*. The server outlives the run: once the run
// has printed its results, datacron says so on one line and keeps serving
// the finished run's readings until SIGINT/SIGTERM, then shuts the server
// down and exits 0. SIGINT/SIGTERM during the run interrupt it gracefully:
// a final checkpoint is captured (when checkpointing is on), the admin
// server is shut down, and a last stats dump is printed before exit 0.
//
// Usage:
//
//	datacron [-domain maritime|aviation] [-duration 2h] [-vessels 16] [-flights 12] [-seed 1] [-shards N] [-v] [-metrics]
//	         [-admin ADDR] [-log-level debug|info|warn|error] [-log-format text|json]
//	         [-slo-lag 5s] [-slo-stage ingest|decode|predict|emit] [-slo-window 1m] [-slo-quantile 0.99]
//	         [-trace-sample N] [-trace-jsonl FILE]
//	         [-checkpoint-dir DIR] [-checkpoint-interval 1s] [-checkpoint-every N]
//	         [-fault-seed S -fault-kill N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/core"
	"datacron/internal/flow"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs/export"
	"datacron/internal/obs/slo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
)

// options collects every CLI flag so run is callable from tests.
type options struct {
	domain           string
	duration         time.Duration
	vessels, flights int
	seed             int64
	verbose, metrics bool
	export           string

	shards int

	queueCap       int
	overloadPolicy string

	adminAddr string
	logLevel  string
	logFormat string

	sloLag      time.Duration
	sloStage    string
	sloWindow   time.Duration
	sloQuantile float64
	traceSample int
	traceJSONL  string

	ckptDir              string
	ckptInterval         time.Duration
	ckptEvery            int
	faultSeed, faultKill int64
}

func main() {
	var o options
	flag.StringVar(&o.domain, "domain", "maritime", "scenario domain: maritime or aviation")
	flag.DurationVar(&o.duration, "duration", 2*time.Hour, "simulated duration (maritime)")
	flag.IntVar(&o.vessels, "vessels", 16, "fleet size (maritime)")
	flag.IntVar(&o.flights, "flights", 12, "flight count (aviation)")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed")
	flag.IntVar(&o.shards, "shards", 1, "parallel shard workers for the real-time layer (output is byte-identical for any count)")
	flag.IntVar(&o.queueCap, "queue-cap", 0, "bound the raw topic's per-partition uncommitted backlog (0 = unbounded) and arm the backpressure plane")
	flag.StringVar(&o.overloadPolicy, "overload-policy", "block", "what a full raw partition does to producers: block, drop-newest or drop-oldest")
	flag.BoolVar(&o.verbose, "v", false, "print the run loop's stage shares, dashboard event notes and every mover's speed and acceleration profile")
	flag.BoolVar(&o.metrics, "metrics", false, "print the pipeline's metric registry after the run")
	flag.StringVar(&o.export, "export", "", "write the RDF-ized stream to this N-Triples file")
	flag.StringVar(&o.adminAddr, "admin", "", "serve /metrics, /statz, /healthz, /readyz, /traces and pprof on this address (empty disables)")
	flag.StringVar(&o.logLevel, "log-level", "", "structured log level: debug, info, warn or error (empty disables logging)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.DurationVar(&o.sloLag, "slo-lag", 0, "arm a freshness SLO: the stage's lag quantile must stay under this per window (0 disables)")
	flag.StringVar(&o.sloStage, "slo-stage", "predict", "pipeline stage the freshness SLO watches: ingest, decode, predict or emit (with -queue-cap also ingest.bulk, ingest.standard or ingest.critical)")
	flag.DurationVar(&o.sloWindow, "slo-window", time.Minute, "freshness SLO evaluation window")
	flag.Float64Var(&o.sloQuantile, "slo-quantile", 0.99, "freshness SLO lag quantile in (0,1]")
	flag.IntVar(&o.traceSample, "trace-sample", 256, "trace one record in every N admitted (0 disables record span trees)")
	flag.StringVar(&o.traceJSONL, "trace-jsonl", "", "write the flight-recorder spans to this file as JSON lines after the run")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "enable checkpointing, storing checkpoints in this directory")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", time.Second, "wall-clock checkpoint trigger (0 disables)")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 0, "checkpoint after this many records (0 disables)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "fault-injection seed for crash drills (0 disables)")
	flag.Int64Var(&o.faultKill, "fault-kill", 0, "inject a crash roughly every this many records")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context; the pipeline notices at the
	// next poll and run takes the graceful-shutdown path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datacron:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a flag value run refuses before it starts; main exits 2
// on it, as the flag package does for a flag it cannot parse.
var errUsage = errors.New("usage")

// sloStages lists the stages whose lag.<stage>.seconds family a run
// registers, so an SLO armed on one of them has a distribution to judge.
// The per-priority ingest families exist only with the backpressure plane
// (-queue-cap).
func sloStages(queueCap int) []string {
	stages := []string{"ingest", "decode", "predict", "emit"}
	if queueCap > 0 {
		stages = append(stages, "ingest.bulk", "ingest.standard", "ingest.critical")
	}
	return stages
}

// logger builds the slog logger the pipeline components share, or nil when
// logging is disabled.
func logger(o options) (*slog.Logger, error) {
	if o.logLevel == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(o.logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", o.logLevel, err)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch o.logFormat {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", o.logFormat)
	}
}

func run(ctx context.Context, o options, out io.Writer) error {
	if stages := sloStages(o.queueCap); o.sloLag > 0 && !slices.Contains(stages, o.sloStage) {
		return fmt.Errorf("%w: -slo-stage %q has no lag family in this run; want one of %s",
			errUsage, o.sloStage, strings.Join(stages, ", "))
	}
	region := geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}
	var cfg core.Config
	var reports []mobility.Report

	switch o.domain {
	case "maritime":
		areas := gen.Areas(o.seed, gen.ProtectedArea, 40, region, 3_000, 25_000)
		ports := gen.Ports(o.seed+1, 40, region)
		var statics []linkdisc.StaticEntity
		var zones []lowlevel.Region
		for _, a := range areas {
			statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
			zones = append(zones, lowlevel.Region{ID: a.ID, Geom: a.Geom})
		}
		for _, p := range ports {
			statics = append(statics, linkdisc.StaticEntity{ID: p.ID, Geom: p.Pos})
		}
		cfg = core.Config{
			Domain:  mobility.Maritime,
			Link:    linkdisc.Config{Extent: region, MaskResolution: 8, NearDistanceM: 5_000},
			Statics: statics,
			Regions: zones,
		}
		sim := gen.NewVesselSim(gen.VesselSimConfig{
			Seed: o.seed, Region: region,
			Counts: map[gen.VesselClass]int{
				gen.Cargo: o.vessels / 2, gen.Tanker: o.vessels / 4,
				gen.Ferry: o.vessels / 8, gen.Fishing: o.vessels - o.vessels/2 - o.vessels/4 - o.vessels/8,
			},
			GapProb: 0.002,
		})
		reports = sim.Run(o.duration)
	case "aviation":
		region = gen.IberiaRegion
		cfg = core.Config{
			Domain:         mobility.Aviation,
			SampleInterval: 8 * time.Second,
		}
		sim := gen.NewFlightSim(gen.FlightSimConfig{Seed: o.seed, NumFlights: o.flights})
		_, reports = sim.Run()
	default:
		return fmt.Errorf("unknown domain %q", o.domain)
	}

	coreOpts := []core.Option{core.WithConfig(cfg), core.WithShards(o.shards)}
	if o.queueCap > 0 {
		policy, err := msg.ParseOverloadPolicy(o.overloadPolicy)
		if err != nil {
			return fmt.Errorf("bad -overload-policy: %w", err)
		}
		coreOpts = append(coreOpts, core.WithFlow(flow.Config{QueueCap: o.queueCap, Policy: policy}))
	}
	log, err := logger(o)
	if err != nil {
		return err
	}
	if log != nil {
		coreOpts = append(coreOpts, core.WithLogger(log))
	}
	if o.adminAddr != "" {
		coreOpts = append(coreOpts, core.WithAdmin(o.adminAddr))
	}
	if o.traceSample != 256 {
		coreOpts = append(coreOpts, core.WithTraceSampling(o.traceSample))
	}
	if o.sloLag > 0 {
		coreOpts = append(coreOpts, core.WithSLO(slo.Objective{
			Family:    "lag." + o.sloStage + ".seconds",
			Quantile:  o.sloQuantile,
			Threshold: o.sloLag,
			Window:    o.sloWindow,
		}))
	}
	pipeline, err := core.New(coreOpts...)
	if err != nil {
		return err
	}
	defer pipeline.Shutdown(context.Background())

	fmt.Fprintf(out, "datAcron pipeline — %s scenario, %d raw reports\n", o.domain, len(reports))
	if o.adminAddr != "" {
		fmt.Fprintf(out, "admin server listening on %s\n", pipeline.Admin().Addr())
	}
	// With a bounded raw topic the producer must run concurrently with the
	// consuming run loop: a Block policy waits for commits to free backlog,
	// and commits only happen once the run is polling. Unbounded runs keep
	// the simple sequential shape.
	ingestErr := make(chan error, 1)
	if o.queueCap > 0 {
		//lint:ignore goroleak bounded by the report slice and joined through ingestErr; Ingest aborts on the run ctx when producing blocks
		go func() {
			err := pipeline.Ingest(ctx, reports)
			if err != nil {
				// Ingest closes the raw topic on its normal paths; close it on
				// the error path too so the run loop terminates instead of
				// polling forever.
				_ = pipeline.Broker.CloseTopic(core.TopicRaw)
			}
			ingestErr <- err
		}()
	} else {
		if err := pipeline.Ingest(ctx, reports); err != nil {
			return err
		}
		ingestErr <- nil
	}
	var rc *core.RecoveryConfig
	if o.ckptDir != "" {
		dirStore, err := checkpoint.NewDirStore(o.ckptDir)
		if err != nil {
			return err
		}
		cpr, err := checkpoint.NewCheckpointer(dirStore, 3)
		if err != nil {
			return err
		}
		rc = &core.RecoveryConfig{Checkpointer: cpr, Interval: o.ckptInterval, EveryRecords: o.ckptEvery}
		if cp, err := cpr.Latest(); err == nil {
			// A pre-existing checkpoint resumes that run's offsets and state.
			// The broker is in-process, so this only replays correctly when
			// the directory belongs to this process's crashed attempt — a
			// leftover from a finished run skips the already-processed span.
			fmt.Fprintf(out, "warning: resuming from existing %s in %s\n", cp, o.ckptDir)
		} else if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return err
		}
		if o.faultKill > 0 {
			rc.Injector = faultinject.New(faultinject.Config{
				Seed: o.faultSeed, KillMin: o.faultKill, KillMax: 2 * o.faultKill,
			})
		}
		fmt.Fprintf(out, "checkpointing to %s (interval %s, every %d records)\n", o.ckptDir, o.ckptInterval, o.ckptEvery)
	}
	start := time.Now()
	sum, err := pipeline.RunWithRecovery(ctx, rc)
	for restarts := 0; errors.Is(err, faultinject.ErrInjectedCrash); restarts++ {
		if restarts >= 1000 {
			return fmt.Errorf("giving up after %d injected crashes", restarts)
		}
		fmt.Fprintf(out, "injected crash after %d records — recovering from latest checkpoint\n", sum.RawIn)
		sum, err = pipeline.RunWithRecovery(ctx, rc)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return shutdown(pipeline, rc, sum, time.Since(start), out)
	}
	if err != nil {
		return err
	}
	if rc != nil && rc.Injector != nil && rc.Injector.Kills() > 0 {
		fmt.Fprintf(out, "survived %d injected crashes (%d checkpoints captured)\n",
			rc.Injector.Kills(), rc.Checkpointer.Captures())
	}
	if ierr := <-ingestErr; ierr != nil && !errors.Is(ierr, context.Canceled) {
		return ierr
	}
	fmt.Fprintf(out, "real-time layer (%s): %s\n", time.Since(start).Round(time.Millisecond), sum)
	if o.queueCap > 0 {
		st := pipeline.Stats()
		if raw, ok := st.Broker.Topic(core.TopicRaw); ok {
			fmt.Fprintf(out, "flow: policy=%s cap=%d admitted=%d shed=%d rejected=%d evicted=%d\n",
				o.overloadPolicy, o.queueCap, st.Flow.Shedder.Admitted,
				st.Flow.Shedder.Shed(), raw.Rejected, raw.Evicted)
		}
	}

	if o.export != "" {
		f, err := os.Create(o.export)
		if err != nil {
			return err
		}
		n, err := pipeline.ExportTriples(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "exported %d triples to %s\n", n, o.export)
	}

	kg, err := pipeline.BuildKnowledgeGraph(store.STCellConfig{
		Extent: region, Cols: 48, Rows: 48,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}, store.NewVerticalPartitioning())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "batch layer: knowledge graph with %d triples, %d dictionary entries\n",
		kg.Len(), kg.Dict().Len())

	// Example offline query: semantic nodes in the first simulated hour.
	q := store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropSpeed, Obj: nil},
		},
		Rect:      region,
		TimeStart: gen.DefaultStart,
		TimeEnd:   gen.DefaultStart.Add(time.Hour),
	}
	for _, plan := range []store.Plan{store.PostFilter, store.EncodedPruning} {
		qStart := time.Now()
		results, stats, err := kg.StarJoin(q, plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "star query [%s]: %d nodes in %s (candidates %d, cell-rejected %d, precise checks %d)\n",
			plan, len(results), time.Since(qStart).Round(time.Microsecond),
			stats.Candidates, stats.CellRejected, stats.PreciseChecks)
	}

	if o.metrics {
		st := pipeline.Stats()
		fmt.Fprintf(out, "metrics: %.0f records/s, %.0f entities/s, compression ratio %.3f\n",
			st.Metrics.Rate("core.records"), st.Metrics.Rate("linkdisc.entities"), st.Summary.Compression)
		if err := st.WriteText(out); err != nil {
			return err
		}
	}

	if o.sloLag > 0 {
		for _, st := range pipeline.Stats().SLO {
			fmt.Fprintf(out, "slo %s: p%.0f(%s)=%.3fs threshold=%.0fs windows=%d violated=%d burn=%.0f%%\n",
				st.Name, st.Quantile*100, st.Family, st.Current, st.ThresholdSeconds,
				st.Windows, st.Violations, st.BudgetBurn*100)
		}
	}
	if o.traceJSONL != "" {
		if err := writeTraceJSONL(o.traceJSONL, pipeline); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote flight-recorder spans to %s\n", o.traceJSONL)
	}

	snap := pipeline.Dashboard.Snapshot(time.Now())
	fmt.Fprintf(out, "dashboard: %d movers, %d critical points, %d links, %d predictions, %d event notes\n",
		len(snap.Positions), len(snap.Criticals), len(snap.Links), len(snap.Predictions), len(snap.Events))
	if o.verbose {
		writeStages(out, pipeline.Stats())
		for _, note := range snap.Events {
			fmt.Fprintln(out, "  event:", note)
		}
		prof := pipeline.Profiler()
		for _, id := range prof.MoverIDs() {
			p := prof.Profile(id)
			fmt.Fprintf(out, "  profile %s: speed min/mean/median/max %.1f/%.1f/%.1f/%.1f kn, acceleration mean %.4f m/s²\n",
				id, p.Speed.Min(), p.Speed.Mean(), p.Speed.Median(), p.Speed.Max(), p.Accel.Mean())
		}
	}
	if o.adminAddr != "" {
		// The finished run's metrics, stats, health and traces stay
		// readable until the operator stops the process; the deferred
		// Shutdown then closes the server.
		fmt.Fprintf(out, "run complete; admin server still serving on %s until SIGINT/SIGTERM\n", pipeline.Admin().Addr())
		<-ctx.Done()
	}
	return nil
}

// stageNames are the real-time run loop's stages in the order a poll batch
// passes them, then idle: core.stage.<name>.ns holds each one's time.
var stageNames = []string{"poll", "drain", "link", "render", "cer", "publish", "commit", "checkpoint", "idle"}

// writeStages prints -v's stage line: each run-loop stage's share of the
// loop's time, the time the merge spent waiting on the shard workers, and
// each worker's busy share of the same time.
func writeStages(out io.Writer, st core.PipelineStats) {
	var total int64
	for _, s := range stageNames {
		total += st.Metrics.Counter("core.stage." + s + ".ns")
	}
	if total == 0 {
		return
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	var b strings.Builder
	fmt.Fprintf(&b, "stages over %s:", time.Duration(total).Round(time.Microsecond))
	for _, s := range stageNames {
		fmt.Fprintf(&b, " %s %.1f%%", s, pct(st.Metrics.Counter("core.stage."+s+".ns")))
	}
	var wait int64
	for _, sh := range st.Shards {
		wait += sh.WaitNS
	}
	fmt.Fprintf(&b, "; merge wait %.1f%%; worker busy", pct(wait))
	for _, sh := range st.Shards {
		fmt.Fprintf(&b, " %d:%.1f%%", sh.Shard, pct(sh.BusyNS))
	}
	fmt.Fprintln(out, b.String())
}

// writeTraceJSONL dumps the tracer's flight-recorder ring — completion
// order, oldest first — as one JSON object per line.
func writeTraceJSONL(path string, pipeline *core.Pipeline) error {
	t := pipeline.Tracer()
	if t == nil {
		return fmt.Errorf("-trace-jsonl needs instrumentation enabled")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := export.WriteSpansJSONL(f, t.Recent())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// shutdown is the graceful interrupt path: capture a final checkpoint when
// checkpointing is on, stop the admin server and watchdog, and print one
// last stats dump so the partial run is not lost. It returns nil so the
// process exits 0 — an operator-requested stop is not a failure.
func shutdown(pipeline *core.Pipeline, rc *core.RecoveryConfig, sum core.Summary, elapsed time.Duration, out io.Writer) error {
	fmt.Fprintf(out, "interrupt: shutting down gracefully after %s\n", elapsed.Round(time.Millisecond))
	if rc != nil {
		if gen, err := rc.Checkpointer.Capture(pipeline.Broker); err != nil {
			fmt.Fprintf(out, "final checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintf(out, "final checkpoint captured (generation %d)\n", gen)
		}
	}
	if err := pipeline.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(out, "admin shutdown: %v\n", err)
	}
	fmt.Fprintf(out, "partial summary: %s\n", sum)
	st := pipeline.Stats()
	return st.WriteText(out)
}
