package core

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"datacron/internal/admin"
	"datacron/internal/flow"
	"datacron/internal/health"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/obs/slo"
)

// Option configures a Pipeline built with New. The pipeline's own settings
// are one Config, set with WithConfig, whose zero fields take their
// documented defaults; the other options attach what runs around the
// pipeline — metrics, clock, logger, admin server, SLOs, flow control — and
// WithShards sets the shard count alone.
type Option func(*options)

// options is the accumulated build state.
type options struct {
	cfg       Config
	reg       *obs.Registry
	regSet    bool
	clock     obs.Clock
	logger    *slog.Logger
	adminAddr string
	adminSet  bool
	wdTick    time.Duration
	flow      flow.Config
	sample    int
	sampleSet bool
	slos      []slo.Objective
}

// WithConfig sets the pipeline's Config wholesale; its zero fields take
// their defaults. A later WithShards overrides the shard count.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithShards runs the real-time loop's per-trajectory stages (synopses,
// area monitoring, future-location prediction) on n parallel shard workers
// (default 1 = serial), routed by hash of the mover ID. Output is
// byte-identical for any shard count: worker results are merged back in
// the deterministic ingest order, and checkpoints are coordinated through
// an epoch barrier. With WithAdmin, each shard gets its own health verdict
// and /statz row. Pick n around the machine's core count, capped by the
// fleet size — shards beyond the number of distinct movers sit idle.
func WithShards(n int) Option {
	return func(o *options) { o.cfg.Shards = n }
}

// WithObs attaches the given metrics registry instead of the default
// fresh one. Pass nil to disable instrumentation entirely — every metric
// handle degrades to a no-op. Sharing one registry across pipelines merges
// their metrics.
func WithObs(reg *obs.Registry) Option {
	return func(o *options) {
		o.reg = reg
		o.regSet = true
	}
}

// WithClock injects the time source used by the default registry, span
// tracing and the interval checkpoint trigger (default: the wall clock).
// Deterministic tests pass an obs.ManualClock. When WithObs supplies a
// registry, that registry's clock wins.
func WithClock(clock obs.Clock) Option {
	return func(o *options) { o.clock = clock }
}

// WithLogger attaches a structured logger: the pipeline, broker and
// checkpointer log through it with per-component attrs, and the admin
// server (when enabled) reports its lifecycle on it. Nil (the default)
// logs nowhere.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.logger = l }
}

// WithAdmin starts the operational HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0" for an ephemeral port) serving /metrics, /statz, /healthz,
// /readyz, /traces and /debug/pprof/, and arms a health watchdog over the
// pipeline's registry. Requires metrics (i.e. not WithObs(nil)). Shut it
// down with Pipeline.Shutdown.
func WithAdmin(addr string) Option {
	return func(o *options) {
		o.adminAddr = addr
		o.adminSet = true
	}
}

// WithWatchdogInterval sets how often the admin watchdog ticks (default
// 5s). Tests that tick manually can set a large interval and drive
// Pipeline.Watchdog().Tick() themselves.
func WithWatchdogInterval(d time.Duration) Option {
	return func(o *options) { o.wdTick = d }
}

// WithTraceSampling sets the record-trace sampling period: one record in
// every n admitted to processing gets a full span tree (ingest through
// emit) in the tracer's flight-recorder ring. The default is 256; 0
// disables record tracing (stage spans like poll/process/checkpoint are
// unaffected). Sampling is head-based and deterministic — the decision
// depends only on the record's position in the processed sequence, so a
// crash-recovery replay samples the same records.
func WithTraceSampling(n int) Option {
	return func(o *options) {
		o.sample = n
		o.sampleSet = true
	}
}

// WithSLO arms the freshness SLO tracker over the given objectives (e.g.
// "p99 of lag.predict.seconds ≤ 5s per 1m window"). The tracker publishes
// slo.<name>.* metrics and its standing on /slo and /statz; with WithAdmin
// it also registers a health checker — a violated window degrades the
// "slo" component, and Burn consecutive violated windows escalate it to
// Overloaded, costing readiness. Requires metrics (not WithObs(nil)).
func WithSLO(objectives ...slo.Objective) Option {
	//lint:ignore boundedchan construction-time option accumulation, bounded by the caller's objective list
	return func(o *options) { o.slos = append(o.slos, objectives...) }
}

// WithFlow arms the backpressure and admission-control plane: the raw topic
// is bounded at cfg.QueueCap records of uncommitted backlog per partition
// under cfg.Policy, a priority-aware shedder drops low-value records at
// watermarks derived from that capacity (flow.Config.Shedder), and (with WithAdmin) an overload health checker
// reports the new Overloaded state while records are being shed, rejected
// or blocked. The zero Config (QueueCap 0) leaves the plane off — the
// pipeline behaves exactly as without the option.
func WithFlow(cfg flow.Config) Option {
	return func(o *options) { o.flow = cfg }
}

// New builds a pipeline from options: broker topics, dashboard, optional
// forecaster, and — unless WithObs(nil) disables it — a metrics
// registry instrumenting every stage. With WithAdmin it also starts the
// operational HTTP server and its health watchdog.
func New(opts ...Option) (*Pipeline, error) {
	o := &options{clock: obs.WallClock{}, wdTick: 5 * time.Second}
	for _, opt := range opts {
		opt(o)
	}
	reg := o.reg
	if !o.regSet {
		reg = obs.NewRegistry(o.clock)
	}
	clock := o.clock
	if reg != nil {
		clock = reg.Clock()
	}
	p, err := newPipeline(o.cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	p.obs = reg
	p.clock = clock
	p.log = obs.Component(o.logger, "core")
	p.rootLog = o.logger
	p.Broker.SetLogger(o.logger)
	if reg != nil {
		// The ring holds 512 spans: a sampled record emits up to ~8 spans,
		// so even interleaved with the per-batch poll/process spans a few
		// dozen complete record trees stay reconstructable from /traces.
		p.tracer = obs.NewTracer(clock, 512)
		p.Broker.Instrument(reg)
		sample := 256
		if o.sampleSet {
			sample = o.sample
		}
		p.sampler = obs.NewSampler(sample)
	}
	if len(o.slos) > 0 {
		if reg == nil {
			return nil, fmt.Errorf("core: WithSLO requires metrics; do not combine with WithObs(nil)")
		}
		p.slos = slo.NewTracker(reg, o.slos...)
	}
	if o.flow.Enabled() {
		if err := p.Broker.LimitTopic(TopicRaw, msg.TopicLimit{
			Capacity: o.flow.QueueCap,
			Policy:   o.flow.Policy,
		}); err != nil {
			return nil, fmt.Errorf("core: limit raw topic: %w", err)
		}
		p.shedder = o.flow.Shedder(p.cfg.Partitions, reg)
	}
	if o.adminSet {
		if reg == nil {
			return nil, fmt.Errorf("core: WithAdmin requires metrics; do not combine with WithObs(nil)")
		}
		p.watchdog = health.NewWatchdog(reg)
		// Checkers read the merged view (main registry plus shard worker
		// registries) so shard-local lag families feed the SLO tracker.
		p.watchdog.SetSnapshotFunc(p.MergedSnapshot)
		if o.flow.Enabled() {
			p.watchdog.Register(health.NewOverloadChecker())
		}
		if p.slos != nil {
			p.watchdog.Register(slo.NewChecker(p.slos))
		}
		// One verdict per shard worker: a stalled shard surfaces in
		// /healthz as "shard.<i>" instead of hiding inside aggregate
		// throughput.
		for i := 0; i < p.cfg.Shards; i++ {
			p.watchdog.Register(health.NewShardChecker(i, p.shardProgress))
		}
		p.admin = admin.New(admin.Config{
			Addr:     o.adminAddr,
			Registry: reg,
			Snapshot: p.MergedSnapshot,
			Tracer:   p.tracer,
			Watchdog: p.watchdog,
			Statz:    func() any { return p.Stats() },
			SLO:      p.slos.Status,
			Logger:   o.logger,
		})
		if err := p.admin.Start(); err != nil {
			return nil, fmt.Errorf("core: admin server: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p.stopWatchdog = cancel
		go p.watchdog.Run(ctx, o.wdTick)
	}
	return p, nil
}
