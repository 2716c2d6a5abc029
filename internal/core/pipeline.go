// Package core wires the datAcron components into the architecture of
// Figure 2: surveillance streams enter through the message broker; the
// real-time layer runs in-situ processing (validity filtering, per-
// trajectory statistics, low-level area events), the synopses generator,
// RDF-ification, spatio-temporal link discovery, future-location prediction
// and complex event forecasting, feeding the situation dashboard; the batch
// layer drains the enriched topics into the spatio-temporal knowledge graph
// store for offline analytics.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"datacron/internal/admin"
	"datacron/internal/cer"
	"datacron/internal/flow"
	"datacron/internal/gen"
	"datacron/internal/health"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/obs/slo"
	"datacron/internal/shard"
	"datacron/internal/store"
	"datacron/internal/synopses"
	"datacron/internal/va"
)

// ErrBackpressure is returned by Ingest when backpressure blocking on the
// bounded raw topic outlived the caller's context: the deadline passed or
// the context was cancelled while Produce was waiting for the backlog to
// drain. It wraps the context error, so errors.Is matches both.
var ErrBackpressure = errors.New("core: ingest blocked on backpressure")

// Topic names of the Kafka-substitute broker.
const (
	TopicRaw      = "surveillance.raw"
	TopicSynopses = "trajectory.synopses"
	TopicTriples  = "rdf.triples"
	TopicLinks    = "links.discovered"
	TopicEvents   = "events.forecasts"
)

// Config assembles a pipeline.
type Config struct {
	Domain     mobility.Domain
	Synopses   synopses.Config // zero value: domain default
	Link       linkdisc.Config // extent etc.
	Statics    []linkdisc.StaticEntity
	Regions    []lowlevel.Region // monitored zones for low-level events
	Partitions int               // broker partitions (default 4)
	// Shards is the number of parallel shard workers in the real-time run
	// loop (default 1). Records route to workers by hash of the mover ID,
	// so per-trajectory state stays shard-local, and worker results merge
	// back in submit order — output is byte-identical for any shard count.
	// When checkpointing, the shard count must stay the same across
	// restarts of one checkpoint store.
	Shards int
	// FLP configuration.
	PredictSteps   int           // look-ahead steps per mover (default 8)
	SampleInterval time.Duration // FLP sampling interval (default 10s)
	// CER configuration: when Pattern is non-empty, one Wayeb forecaster
	// sees the type of every mover's critical points, in merge order, as a
	// single stream (a forecaster per mover is ROADMAP item 15).
	Pattern      string
	Alphabet     []string
	ModelOrder   int
	Theta        float64
	TrainSymbols []string // training stream for the symbol model
	// Weather enables enrichment: critical points are annotated with the
	// field's wind speed and wave height at their position and time, and
	// the annotations are lifted into the knowledge graph.
	Weather *gen.WeatherField
}

func (c Config) withDefaults() Config {
	if c.Synopses == (synopses.Config{}) {
		if c.Domain == mobility.Aviation {
			c.Synopses = synopses.DefaultAviation()
		} else {
			c.Synopses = synopses.DefaultMaritime()
		}
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.PredictSteps <= 0 {
		c.PredictSteps = 8
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 10 * time.Second
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	return c
}

// Summary reports what a real-time run did.
type Summary struct {
	RawIn          int64
	CriticalPoints int64
	Compression    float64
	AreaEvents     int64
	Links          int64
	Triples        int64
	Predictions    int64
	Detections     int64
	Forecasts      int64
}

func (s Summary) String() string {
	return fmt.Sprintf(
		"raw=%d critical=%d (compression %.1f%%) areaEvents=%d links=%d triples=%d predictions=%d detections=%d forecasts=%d",
		s.RawIn, s.CriticalPoints, s.Compression*100, s.AreaEvents, s.Links,
		s.Triples, s.Predictions, s.Detections, s.Forecasts)
}

// Pipeline is a configured datAcron instance.
type Pipeline struct {
	cfg       Config
	Broker    *msg.Broker
	Dashboard *va.Dashboard

	forecaster *cer.Forecaster

	// Backpressure plane, active only with WithFlow: the raw topic is
	// bounded per the flow.Config and shedder drops low-value records before
	// they are produced. shedder is driven only by the Ingest goroutine.
	shedder *flow.Shedder

	obs     *obs.Registry // nil when built with WithObs(nil)
	clock   obs.Clock
	tracer  *obs.Tracer
	sampler *obs.Sampler // head-based record-trace sampler (nil = no sampling)
	slos    *slo.Tracker // freshness SLO tracker (nil without WithSLO)
	log     *slog.Logger // component "core"
	rootLog *slog.Logger // as passed to WithLogger; handed to sub-components

	// Operational plane, present only with WithAdmin.
	admin        *admin.Server
	watchdog     *health.Watchdog
	stopWatchdog context.CancelFunc

	// Component stats captured at the end of the most recent real-time
	// run; guarded because Stats may be called from a monitoring goroutine.
	mu       sync.Mutex
	lastSyn  synopses.Stats
	lastProf *lowlevel.Profiler
	lastLink linkdisc.Stats
	lastCons msg.ConsumerStats
	lastSum  Summary
	lastFlow FlowStats
	// Shard view of the current (or last) run, set at run start: the
	// per-worker metric registries (nil entries when instrumentation is
	// off) and the plane's live per-shard progress.
	shardRegs  []*obs.Registry
	shardStats func() []shard.Stats

	// ingestRecs is the batched-ingest record-header scratch, reused across
	// chunks. Touched only by the Ingest goroutine, like the shedder.
	ingestRecs []msg.Record

	// noPrefetch makes RunWithRecovery apply each poll batch before it
	// polls the next: the unpipelined loop, kept as the reference that tests
	// compare checkpoint cuts and fault schedules against. Set only by tests.
	noPrefetch bool
}

// newPipeline builds the component set from a defaulted Config; New wires
// observability on top.
func newPipeline(cfg Config) (*Pipeline, error) {
	b := msg.NewBroker()
	for _, t := range []string{TopicRaw, TopicSynopses, TopicTriples, TopicLinks, TopicEvents} {
		if err := b.CreateTopic(t, cfg.Partitions); err != nil {
			return nil, err
		}
	}
	p := &Pipeline{
		cfg:       cfg,
		Broker:    b,
		Dashboard: va.NewDashboard(1000),
	}
	if cfg.Pattern != "" {
		pat, err := cer.ParsePattern(cfg.Pattern)
		if err != nil {
			return nil, fmt.Errorf("core: pattern: %w", err)
		}
		model := cer.LearnModel(cfg.TrainSymbols, cfg.Alphabet, cfg.ModelOrder, 1)
		p.forecaster, err = cer.NewForecaster(pat, cfg.Alphabet, model, 200, cfg.Theta)
		if err != nil {
			return nil, fmt.Errorf("core: forecaster: %w", err)
		}
	}
	return p, nil
}

// Profiler returns the per-trajectory profiles (speed and acceleration
// statistics of every mover with a valid report) of the most recent
// real-time run, gathered from its shard workers when it ended; empty
// before the first run ends. A restored run's profiles continue the
// checkpointed ones.
func (p *Pipeline) Profiler() *lowlevel.Profiler {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastProf == nil {
		return lowlevel.NewProfiler()
	}
	return p.lastProf
}

// Admin returns the operational HTTP server (nil without WithAdmin). Its
// Addr method reports the bound address, useful with ":0".
func (p *Pipeline) Admin() *admin.Server { return p.admin }

// Watchdog returns the health watchdog (nil without WithAdmin). Tests
// driving a ManualClock can call its Tick directly.
func (p *Pipeline) Watchdog() *health.Watchdog { return p.watchdog }

// Shutdown stops the operational plane: the watchdog loop ends and the
// admin server drains within ctx. Safe without WithAdmin and safe to call
// more than once; the data path is unaffected (cancel the run's context to
// stop it).
func (p *Pipeline) Shutdown(ctx context.Context) error {
	if p.stopWatchdog != nil {
		p.stopWatchdog()
	}
	return p.admin.Shutdown(ctx)
}

// ingestBatch is the number of reports encoded and produced per ProduceBatch
// call on the unshedded ingest path: one byte arena and one broker batch per
// ingestBatch records.
const ingestBatch = 256

// Ingest publishes raw surveillance reports to the broker, keyed by mover
// (preserving per-mover order), then closes the raw topic so the real-time
// layer terminates when it has drained the log. Use for batch experiments;
// live deployments would keep the topic open.
//
// Reports cross the wire in the binary codec (mobility.AppendBinary), the
// only format the shard workers decode. Without a shedder, Ingest encodes
// each ingestBatch-sized chunk into one arena and produces it with
// Broker.ProduceBatch — one lock acquisition and one metrics flush per
// chunk instead of one per record.
//
// With WithFlow, Ingest is the admission boundary: the shedder drops
// low-value records under queue-depth pressure (counted, not errors), a
// DropNewest topic limit turns produce rejections into counted drops, and a
// Block limit makes Produce wait — cancellably — for the backlog to drain.
// When that wait outlives ctx, Ingest returns an error wrapping both
// ErrBackpressure and the context error. Shedding decisions read the live
// queue depth per record, so the shedded path keeps per-record Produce.
func (p *Pipeline) Ingest(ctx context.Context, reports []mobility.Report) error {
	var st FlowStats
	defer func() {
		if p.shedder != nil {
			st.Shedder = p.shedder.Stats()
		}
		p.mu.Lock()
		p.lastFlow = st
		p.mu.Unlock()
	}()
	// Freshness at the ingest boundary: how stale each report already is
	// when it is produced to the raw topic. The per-priority breakdown
	// (lag.ingest.<class>.*) is observed inside the shedder, which knows
	// the classification.
	lagIngest := obs.NewLagStage(p.obs, "ingest")
	if p.shedder != nil {
		return p.ingestShedded(ctx, reports, lagIngest, &st)
	}
	for base := 0; base < len(reports); base += ingestBatch {
		end := base + ingestBatch
		if end > len(reports) {
			end = len(reports)
		}
		if err := p.ingestChunk(ctx, reports[base:end], lagIngest, &st); err != nil {
			return err
		}
	}
	return p.Broker.CloseTopic(TopicRaw)
}

// ingestChunk encodes one chunk into a single byte arena and produces it as
// one broker batch. The arena is fresh per chunk — the broker retains record
// values in its log, so the encode buffer cannot be pooled — but the record
// headers are a per-pipeline scratch reused across chunks, so the steady
// state allocates once per chunk, not per record.
func (p *Pipeline) ingestChunk(ctx context.Context, chunk []mobility.Report, lagIngest obs.LagStage, st *FlowStats) error {
	size := 0
	for i := range chunk {
		size += chunk[i].BinarySize()
	}
	arena := make([]byte, 0, size)
	if cap(p.ingestRecs) < len(chunk) {
		p.ingestRecs = make([]msg.Record, len(chunk))
	}
	recs := p.ingestRecs[:len(chunk)]
	for i := range chunk {
		start := len(arena)
		arena = chunk[i].AppendBinary(arena)
		recs[i] = msg.Record{
			Key:   chunk[i].ID,
			Value: arena[start:len(arena):len(arena)],
			Time:  chunk[i].Time,
		}
	}
	admitted, err := p.Broker.ProduceBatch(ctx, TopicRaw, recs)
	// Batch-aware freshness: one clock read per chunk, one lag observation
	// per admitted record, so the ingest stage's histogram counts exactly
	// what the per-record path would.
	now := p.clock.Now()
	for i := range recs {
		if recs[i].Offset != msg.RejectedOffset {
			lagIngest.Observe(now, recs[i].Time)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return backpressureErr(err)
		}
		return err
	}
	// Policy refusals (drop-newest overload) are counted, not errors.
	st.RejectedFull += int64(len(chunk) - admitted)
	return nil
}

// ingestShedded is the per-record admission path used with WithFlow: the
// shedder consults the live raw-topic depth before every record, so records
// are produced one at a time (in the binary codec) and batch amortization
// does not apply.
func (p *Pipeline) ingestShedded(ctx context.Context, reports []mobility.Report, lagIngest obs.LagStage, st *FlowStats) error {
	for _, r := range reports {
		depth, err := p.Broker.Backlog(TopicRaw)
		if err != nil {
			return err
		}
		if err := p.shedder.Admit(r.ID, r.Time, int(depth)); err != nil {
			continue // shed by priority: bookkept in the shedder, not an error
		}
		_, err = p.Broker.Produce(ctx, TopicRaw, r.ID, r.AppendBinary(make([]byte, 0, r.BinarySize())), r.Time)
		switch {
		case err == nil:
			lagIngest.Observe(p.clock.Now(), r.Time)
		case errors.Is(err, msg.ErrTopicFull):
			st.RejectedFull++ // drop-newest overload: counted, keep going
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return backpressureErr(err)
		default:
			return err
		}
	}
	return p.Broker.CloseTopic(TopicRaw)
}

// backpressureErr wraps a cancellation that hit a blocked produce; a named
// cold-path constructor so the per-record ingest loop stays allocation-free
// on admitted records.
func backpressureErr(err error) error {
	return fmt.Errorf("%w: %w", ErrBackpressure, err)
}

// RunRealTime consumes the raw topic through the full real-time layer until
// the topic closes or the context is cancelled, and returns the run summary.
// It is RunWithRecovery without checkpointing; see recovery.go.
func (p *Pipeline) RunRealTime(ctx context.Context) (Summary, error) {
	return p.RunWithRecovery(ctx, nil)
}

// BuildKnowledgeGraph drains the triples topic (the batch layer's input)
// into a spatio-temporal store with the given cell configuration and layout.
func (p *Pipeline) BuildKnowledgeGraph(cfg store.STCellConfig, layout store.Layout) (*store.Store, error) {
	triples, err := p.drainTriples()
	if err != nil {
		return nil, err
	}
	st := store.New(cfg, layout)
	loadBatched(st, triples)
	return st, nil
}
