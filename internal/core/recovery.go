package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/linkdisc"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/rdfgen"
	"datacron/internal/shard"
	"datacron/internal/wire"
)

// RecoveryConfig enables coordinated checkpointing (and, for tests and
// drills, fault injection) on a real-time run.
type RecoveryConfig struct {
	// Checkpointer holds the store and retention policy. The pipeline
	// registers its sources, outputs and operators on it, restores from the
	// latest valid checkpoint before consuming, and captures new checkpoints
	// at batch boundaries.
	Checkpointer *checkpoint.Checkpointer
	// EveryRecords triggers a checkpoint after at least this many records
	// since the previous one (0 disables the record-count trigger).
	EveryRecords int
	// Interval triggers a checkpoint when this much wall-clock time has
	// passed since the previous one (0 disables the timer trigger).
	Interval time.Duration
	// Injector, when non-nil, drives deterministic fault injection: crashes
	// (ErrInjectedCrash) and dropped poll batches.
	Injector *faultinject.Injector
}

// sourceGroup and sourceMember identify the real-time layer's consumer.
const (
	sourceGroup  = "realtime"
	sourceMember = "rt-1"
)

// pollBatch is the per-poll record cap. Checkpoints and shard barriers run
// only at batch boundaries, and the plane's per-shard queues are sized
// against it so two whole batches — the one being applied and the one
// fetched ahead — can be in flight without blocking.
const pollBatch = 256

// outputTopics are the topics the real-time layer produces to; recovery
// truncates them back to the checkpointed end offsets.
var outputTopics = []string{TopicSynopses, TopicTriples, TopicLinks, TopicEvents}

// runStateSnapshotter checkpoints the pipeline-global state that lives
// outside any single operator — the RDF node sequence counter and the run
// summary — through pointers into the running loop's locals. Its blob is
//
//	tag 0xC2 | version | varint seq | varint rawIn | varint criticalPoints |
//	varint areaEvents | varint links | varint triples | varint predictions |
//	varint detections | varint forecasts | f64 compression
type runStateSnapshotter struct {
	seq *int
	sum *Summary
}

// counters lists the summary's integer fields in blob order.
func counters(s *Summary) [8]*int64 {
	return [...]*int64{&s.RawIn, &s.CriticalPoints, &s.AreaEvents, &s.Links,
		&s.Triples, &s.Predictions, &s.Detections, &s.Forecasts}
}

func (r runStateSnapshotter) Snapshot() ([]byte, error) {
	cs := counters(r.sum)
	size := wire.HeaderLen + wire.VarintLen(int64(*r.seq)) + 8
	for _, c := range cs {
		size += wire.VarintLen(*c)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagRunState)
	buf = wire.AppendVarint(buf, int64(*r.seq))
	for _, c := range cs {
		buf = wire.AppendVarint(buf, *c)
	}
	return wire.AppendFloat64(buf, r.sum.Compression), nil
}

func (r runStateSnapshotter) Restore(data []byte) error {
	rd := wire.NewReader(data)
	if err := rd.Header(wire.TagRunState); err != nil {
		return fmt.Errorf("core: restore run state: %w", err)
	}
	seq := rd.Int()
	var sum Summary
	for _, c := range counters(&sum) {
		*c = rd.Varint()
	}
	sum.Compression = rd.Float64()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: restore run state: %w", err)
	}
	if seq < 0 {
		return fmt.Errorf("core: restore run state: negative node sequence %d", seq)
	}
	*r.seq, *r.sum = seq, sum
	return nil
}

// RunWithRecovery is RunRealTime with coordinated checkpointing. With a nil
// rc (or nil rc.Checkpointer and rc.Injector) it behaves exactly like
// RunRealTime. Otherwise it restores broker offsets, output topics and
// operator state from the latest valid checkpoint before consuming — so
// calling it again on the same pipeline after a crash resumes from the last
// checkpoint and regenerates byte-identical output — and captures new
// checkpoints at poll-batch boundaries per the configured triggers.
//
// The merge produces each critical point's synopsis record as it applies
// the point, and the triples, links and forecasts of a whole poll batch
// together when the batch is applied, before committing it. Every partition
// of every output topic receives its records in the order one produce per
// record gives; only the interleaving across topics follows batch
// boundaries.
//
// The Dashboard is a best-effort monitoring sink and is NOT checkpointed.
// The shard workers write each mover's position and prediction into its
// slot, which survives a crash in the pipeline's Dashboard: after recovery
// they equal an uninterrupted run's. The recent critical points, links and
// event notes may hold duplicates from the replayed span. Everything
// published to broker topics is effectively-once.
//
// A run that ends on its context's error between poll batches stages a
// barrier on its way out, so a caller-driven Capture afterwards
// (cmd/datacron's graceful shutdown) writes a consistent cut.
func (p *Pipeline) RunWithRecovery(ctx context.Context, rc *RecoveryConfig) (sum Summary, err error) {
	var cpr *checkpoint.Checkpointer
	var inj *faultinject.Injector
	if rc != nil {
		cpr = rc.Checkpointer
		inj = rc.Injector
	}

	// Build the operator set fresh; configuration-derived structure
	// (thresholds, grids, masks, automata) is rebuilt, dynamic state is
	// restored from the checkpoint below.
	//
	// Per-trajectory operators (synopses, area monitor, FLP, profiler, the
	// Dashboard's positions and predictions) live inside the shard plane's
	// workers, one mover table each, each worker on its own goroutine;
	// shards=1 is a plane of one. Cross-entity operators (link discovery,
	// CER, RDF sequencing, broker output) stay on this goroutine — the
	// serial merge stage — which applies worker results in global submit
	// order, so published output is byte-identical whatever the shard count.
	shards := p.cfg.Shards
	workers := make([]*shardWorker, shards)
	shardRegs := make([]*obs.Registry, shards)
	for i := range workers {
		// Each worker gets its own registry so per-trajectory metric updates
		// never contend; readers see them merged — aggregate plus per-shard
		// label — through MergedSnapshot. Instrumentation off stays off.
		if p.obs != nil {
			shardRegs[i] = obs.NewRegistry(p.clock)
		}
		workers[i] = p.newShardWorker(i, shardRegs[i])
	}
	// The queue size doubles as the per-shard submit-credit pool: two poll
	// batches, the most the run loop keeps in flight, even when every record
	// of both routes to one shard.
	plane := shard.New(shard.Config{Shards: shards, Queue: 2 * pollBatch, Metrics: p.obs},
		func(in workerIn) string { return in.rec.Key },
		func(i int) shard.Worker[workerIn, workerOut] { return workers[i] })
	defer plane.Close()
	p.setShardView(shardRegs, plane.Stats)

	var disc *linkdisc.Discoverer
	if len(p.cfg.Statics) > 0 {
		disc = linkdisc.NewDiscoverer(p.cfg.Link, p.cfg.Statics)
		disc.Instrument(p.obs)
	}
	render := rdfgen.NewPointRenderer()
	seq := 0

	// Per-stage metric handles, resolved once; nil-safe no-ops when
	// instrumentation is off. The watermark gauge tracks the real-time
	// layer's event-time front; the health watchdog pairs it with
	// core.records to detect a stalled run.
	var (
		mRecords   = p.obs.Counter("core.records")
		mWatermark = p.obs.Gauge("core.watermark.unixsec")
		// Freshness accounting (processing time − record event time) for
		// the serial-merge stages; the per-trajectory stages observe their
		// own lag in the shard workers' registries (lag.decode.*).
		lagPredict = obs.NewLagStage(p.obs, "predict")
		lagEmit    = obs.NewLagStage(p.obs, "emit")
	)
	var maxEventTime time.Time

	p.log.Info("real-time run starting",
		"checkpointing", cpr != nil, "faults", inj != nil)
	if rc != nil {
		p.watchdog.SetCheckpointInterval(rc.Interval)
	}

	var shardSnaps *checkpoint.ShardSnapshots
	if cpr != nil {
		cpr.Instrument(p.obs)
		cpr.SetLogger(p.rootLog)
		cpr.RegisterSource(sourceGroup, TopicRaw)
		for _, t := range outputTopics {
			cpr.RegisterOutput(t)
		}
		// Per-worker state is only consistent at a barrier, so it flows
		// through the ShardSnapshots bridge under "shard/<i>/<op>" names,
		// with a meta entry pinning the shard count.
		shardSnaps = checkpoint.NewShardSnapshots(shards, shardOps)
		// Each worker restores its blob while the Checkpointer restores
		// operators, before it moves the broker: a blob a worker rejects
		// leaves offsets and outputs as they were. The workers are not
		// started yet, so this goroutine may write them.
		shardSnaps.OnRestore(func(i int, op string, blob []byte) error {
			return workers[i].Restore(map[string][]byte{op: blob})
		})
		shardSnaps.Register(cpr)
		if disc != nil {
			cpr.Register("linkdisc", disc)
		}
		if p.forecaster != nil {
			cpr.Register("cer", p.forecaster)
		}
		cpr.Register("summary", runStateSnapshotter{seq: &seq, sum: &sum})

		// Metric state is monitoring-only and deliberately outside the
		// checkpoint: reset it (before restoring, so the restore itself is
		// the new run's first observation) and post-recovery readings cover
		// exactly the replayed span instead of double-counting the pre-crash
		// run. The trace sampler rewinds with it: its decisions depend only
		// on the record ordinal, so the replayed poll sequence reproduces
		// the original run's sampling — and, since spans never touch the
		// data path, replay output stays byte-identical either way.
		p.obs.Reset()
		p.sampler.Reset()
		cp, err := cpr.Restore(p.Broker)
		if err != nil {
			return sum, err
		}
		if cp != nil {
			p.log.Info("restored from checkpoint",
				"generation", cp.Generation, "records", sum.RawIn, "shards", shards)
		}
		if cp == nil && p.forecaster != nil {
			// Cold start: Restore rewound the broker to generation zero, and
			// the forecaster restarts with it.
			p.forecaster.Reset()
		}
	}

	plane.Start()

	// barrier coordinates a consistent cut across the plane and stages
	// the per-shard snapshots for the next Capture. Called only between
	// fully drained poll batches, and only when checkpointing.
	barrier := func() error {
		epoch := cpr.NextGeneration()
		states, err := plane.Barrier(epoch)
		if err != nil {
			return err
		}
		return shardSnaps.SetEpoch(epoch, states)
	}

	// The consumer is created after the restore: it starts at the
	// committed offsets as they stand when it opens.
	cons, err := p.Broker.NewConsumer(sourceGroup, TopicRaw, sourceMember)
	if err != nil {
		return sum, err
	}
	defer cons.Close()
	// Capture end-of-run component stats for Pipeline.Stats (runs before
	// cons.Close: deferred calls execute last-in first-out).
	defer func() {
		// An exit on the context's error at the loop top or in a blocking
		// Poll leaves the plane drained (a batch fetched ahead is applied
		// before the loop top) and every applied record's output produced
		// and the record committed: stage that cut for a caller-driven final
		// capture.
		if cpr != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) && plane.Pending() == 0 {
			if berr := barrier(); berr != nil {
				err = errors.Join(err, berr)
			}
		}
		// On the crash/error return path the plane may still have workers
		// mid-record; stop them (idempotent) before reading their state.
		plane.Close()
		p.mu.Lock()
		p.lastSyn = aggregateSynStats(workers)
		p.lastProf = profilerOf(workers)
		if disc != nil {
			p.lastLink = disc.Stats()
		}
		p.lastCons = cons.Stats()
		p.lastSum = sum
		p.mu.Unlock()
	}()

	// The emit path's reused state: the batch's output stage (arenas and
	// staged records), the graph every critical point is rendered into and
	// the links buffer it reads, and the CER notes' buffer.
	emit := newBatchEmit(p.Broker, p.Dashboard)
	var (
		graph rdfgen.PointGraph
		links []linkdisc.Link
		note  []byte
	)
	// processCritical merges one critical point the shard worker has
	// finished (its synopsis record and weather literals are done already):
	// it produces the synopsis record and stages the point's triples, links
	// and forecast on emit, which the caller flushes once per poll batch, so
	// a batch's synopses are published before any of its other output. now
	// is the caller's one clock read for the batch.
	processCritical := func(fp *finishedPoint, root obs.Span, now time.Time) error {
		cp := &fp.CriticalPoint
		// Freshness at the serving edge: how old the critical point's event
		// time is when its synopsis is published downstream — the
		// end-to-end number an operator's SLO is written against.
		lagEmit.Observe(now, cp.Time)
		emitSpan := root.Child("emit")
		defer emitSpan.End()
		sum.CriticalPoints++
		p.Dashboard.AddCritical(*cp)
		// Publish the synopsis record.
		if _, err := p.Broker.Produce(ctx, TopicSynopses, cp.ID, fp.record, cp.Time); err != nil {
			return err
		}
		// Link discovery on the critical point.
		links = links[:0]
		if disc != nil {
			links = disc.AppendPoint(links, cp.ID, cp.Time, cp.Pos)
		}
		// RDF-ify: the point's whole graph — template, weather annotations,
		// then link triples — rendered to N-Triples lines and staged. A link
		// is stamped with the time of the point that produced it, so cp.Time
		// is every record's time.
		row := rdfgen.PointRow{Seq: seq, Point: cp, Weather: p.cfg.Weather != nil,
			Wind: fp.wind, Wave: fp.wave, Links: links}
		render.Render(&graph, &row)
		recs := emit.triples.stage(&graph, cp.Time)
		// The link lines close the graph; each is also its link's
		// TopicLinks value.
		linkRecs := recs[len(recs)-len(links):]
		for i, l := range links {
			sum.Links++
			p.Dashboard.AddLink(l)
			emit.stageLink(l, linkRecs[i].Value)
		}
		sum.Triples += int64(len(recs))
		// Complex event forecasting on the critical-point type stream.
		if p.forecaster != nil {
			cerSpan := root.Child("cer")
			defer cerSpan.End()
			detected, fc, ok := p.forecaster.Process(string(cp.Type))
			if detected {
				sum.Detections++
				note = appendDetectionNote(note[:0], cp.ID, cp.Time)
				emit.stageNote(note)
			}
			if ok {
				sum.Forecasts++
				note = appendForecastNote(note[:0], cp.ID, fc)
				emit.stageNote(note)
				emit.stageEvent(cp.ID, note, cp.Time)
			}
		}
		seq++
		return nil
	}

	// apply is the serial merge stage: it folds one record's shard-local
	// result into the cross-entity operators in global submit order. It
	// always ends the record's trace root — success, corrupt record or
	// error — so sampled span trees never leak open spans. now is the
	// batch's one clock read, the processing time of its lag stages.
	apply := func(out *workerOut, now time.Time) error {
		root := out.trace.rootSpan()
		defer root.End()
		if !out.ok {
			return nil // corrupt record: dropped by the cleaning stage
		}
		sum.RawIn++
		mRecords.Inc()
		if out.eventTime.After(maxEventTime) {
			maxEventTime = out.eventTime
			mWatermark.Set(float64(maxEventTime.Unix()))
		}
		if out.valid {
			sum.AreaEvents += out.areaEvents
			if out.predicted {
				sum.Predictions++
				// Prediction freshness is the headline SLO family: the lag
				// between a mover's event time and the moment its future
				// locations became available to serve.
				lagPredict.Observe(now, out.eventTime)
			}
		}
		for i := range out.cps {
			if err := processCritical(&out.cps[i], root, now); err != nil {
				return err
			}
		}
		return nil
	}

	// applyBatch drains one submitted batch from the plane in submit order,
	// applies it, produces the output it staged and then commits it. It
	// commits once per partition run of the batch, the run's last applied
	// record: a corrupt record is dropped uncommitted, so the group's
	// committed offsets end exactly where a commit per applied record would
	// leave them. The commits follow the flush, so a committed record's
	// output is always on the topics.
	commits := make([]msg.Record, 0, pollBatch)
	applyBatch := func(recs []msg.Record) error {
		procSpan := p.tracer.Start("process")
		defer procSpan.End()
		now := p.clock.Now()
		commits = commits[:0]
		var last *msg.Record
		dirty := false
		for i := range recs {
			if inj != nil {
				if err := inj.BeforeRecord(); err != nil {
					// Simulated crash: undrained worker outputs are
					// discarded with the process state, exactly like a
					// real crash mid-batch.
					return err
				}
			}
			out, err := plane.Next()
			if err != nil {
				return err
			}
			if err := apply(&out, now); err != nil {
				return err
			}
			if out.ok {
				last, dirty = &recs[i], true
			}
			if dirty && (i == len(recs)-1 || recs[i+1].Partition != recs[i].Partition) {
				commits = append(commits, *last)
				dirty = false
			}
		}
		if err := emit.flushBatch(ctx); err != nil {
			return err
		}
		for _, rec := range commits {
			cons.Commit(rec)
		}
		return nil
	}

	var (
		recsSinceCp   int
		lastCp        = p.clock.Now()
		submitScratch []workerIn // reused batch fan-out buffer
	)
	// checkpointDue decides whether a checkpoint is cut once the batch in
	// flight (n records) is applied. It is decided before the next batch is
	// polled, because that batch is fetched only when no cut falls between
	// the two: at a cut the consumer's fetch positions must equal the group's
	// committed offsets. The interval trigger reads the pipeline's injected
	// clock, never the wall clock directly: a run driven by an
	// obs.ManualClock checkpoints at deterministic points, so replay stays
	// byte-identical.
	checkpointDue := func(n int) bool {
		if cpr == nil || rc == nil {
			return false
		}
		return (rc.EveryRecords > 0 && recsSinceCp+n >= rc.EveryRecords) ||
			(rc.Interval > 0 && p.clock.Now().Sub(lastCp) >= rc.Interval)
	}
	checkpointNow := func() error {
		if err := barrier(); err != nil {
			return err
		}
		span := p.tracer.Start("checkpoint")
		gen, err := cpr.Capture(p.Broker)
		span.End()
		if err != nil {
			return err
		}
		p.log.Debug("checkpoint captured",
			"generation", gen, "records", sum.RawIn, "span", span.ID())
		recsSinceCp = 0
		lastCp = p.clock.Now()
		return nil
	}

	// poll fetches the next batch into buf, overwriting what buf held —
	// with block false, only what is already buffered — applies the
	// injector's fetch faults, and fans a kept batch out to the shard
	// workers. It returns buf holding the batch, empty for an empty
	// non-blocking poll and for a dropped batch.
	poll := func(block bool, buf []msg.Record) ([]msg.Record, error) {
		pollSpan := p.tracer.Start("poll")
		var recs []msg.Record
		var err error
		if block {
			recs, err = cons.PollInto(ctx, buf[:0], pollBatch)
		} else {
			recs, err = cons.TryPollInto(buf[:0], pollBatch)
		}
		pollSpan.End()
		if err != nil || len(recs) == 0 {
			return recs, err
		}
		if inj != nil && inj.DropBatch() {
			// Simulated lost fetch response: rewind the consumer's position
			// so the batch is polled again, as a real client would re-fetch
			// after a fetch timeout.
			return recs[:0], cons.SeekTo(recs[0].Partition, recs[0].Offset)
		}
		// Sampling is decided here, in batch order: the decision stream is
		// identical whatever the shard count, and — because it depends only
		// on the record ordinal — identical again under replay.
		//
		// The batch goes to the plane through SubmitBatch — one credit
		// acquisition pass per lane instead of one select per record — via a
		// reused workerIn scratch, so the steady-state fan-out allocates
		// nothing per record. Each workerIn points at its record in buf.
		// Two poll batches in flight fit the plane's queue of twice the poll
		// batch, inside SubmitBatch's per-lane bound.
		if cap(submitScratch) < len(recs) {
			submitScratch = make([]workerIn, len(recs))
		}
		ins := submitScratch[:len(recs)]
		for i := range recs {
			ins[i] = p.newWorkerIn(&recs[i])
		}
		if err := plane.SubmitBatch(ctx, ins); err != nil {
			return recs[:0], err
		}
		return recs, nil
	}

	// The loop is pipelined one batch deep: batch k+1 is polled and
	// submitted before batch k is drained and applied, so the workers
	// process k+1 while this goroutine — the serial merge — applies k. The
	// apply order is the submit order either way, so output is unchanged.
	// Batch k+1 is not fetched ahead when a checkpoint falls due after k
	// (the cut needs fetch positions at the committed offsets), when the
	// context is done, when the injector has scheduled a crash inside k (the
	// crash must find the fault schedule exactly as an unpipelined run
	// leaves it), or when nothing is buffered — a quiet live stream never
	// waits on k+1.
	//
	// The two batches live in two poll buffers that swap after every batch:
	// cur holds the batch in flight (submitted, not yet applied) and next
	// the batch fetched ahead. The workers read their records in place, so
	// a buffer is refilled only after the batch it holds has been applied
	// in full.
	cur := make([]msg.Record, 0, pollBatch)
	next := make([]msg.Record, 0, pollBatch)
	for {
		if len(cur) == 0 {
			// The broker returns buffered records regardless of ctx state, so
			// a cancelled context (SIGINT/SIGTERM in cmd/datacron) must be
			// checked here for shutdown to interrupt a drain of queued
			// records. A batch already in flight is applied first, so the
			// exit leaves the plane drained.
			if err := ctx.Err(); err != nil {
				return sum, err
			}
			recs, err := poll(true, cur)
			if errors.Is(err, msg.ErrClosed) {
				break
			}
			if err != nil {
				return sum, err
			}
			if cur = recs; len(cur) == 0 {
				continue // dropped: poll it again
			}
		}
		due := checkpointDue(len(cur))
		next = next[:0]
		if !p.noPrefetch && !due && ctx.Err() == nil && (inj == nil || !inj.CrashWithin(len(cur))) {
			recs, err := poll(false, next)
			if err != nil {
				return sum, err
			}
			next = recs
		}
		if err := applyBatch(cur); err != nil {
			return sum, err
		}
		// Checkpoints are captured only between poll batches, with nothing
		// fetched ahead: every record of the batch is committed, so the
		// consumer's fetch positions equal the group's committed offsets —
		// the consistent cut a restored run resumes from, replaying the
		// identical poll sequence.
		recsSinceCp += len(cur)
		if due {
			if err := checkpointNow(); err != nil {
				return sum, err
			}
		}
		cur, next = next, cur
	}
	// Flush trajectory ends. Each worker flushes its own movers sorted by
	// (time, ID); the k-way merge with the same comparator reproduces the
	// exact sequence a single shard emits.
	plane.Close() // workers are single-threaded again after Close
	lists := make([][]finishedPoint, len(workers))
	for i, w := range workers {
		lists[i] = w.Flush()
	}
	flushed := shard.MergeSorted(lessCritical, lists...)
	now := p.clock.Now()
	for i := range flushed {
		// Flush-time critical points have no originating record in flight,
		// so they carry no trace root.
		if err := processCritical(&flushed[i], obs.Span{}, now); err != nil {
			return sum, err
		}
	}
	if err := emit.flushBatch(ctx); err != nil {
		return sum, err
	}
	for _, t := range outputTopics {
		if err := p.Broker.CloseTopic(t); err != nil {
			return sum, err
		}
	}
	sum.Compression = aggregateSynStats(workers).CompressionRatio()
	p.log.Info("real-time run complete",
		"records", sum.RawIn, "critical", sum.CriticalPoints,
		"triples", sum.Triples, "links", sum.Links, "shards", shards)
	return sum, nil
}
