package core

import (
	"context"
	"errors"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/shard"
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

// RunWithRecovery is RunRealTime with coordinated checkpointing. With a nil
// rc (or nil rc.Checkpointer and rc.Injector) it behaves exactly like
// RunRealTime. Otherwise it restores broker offsets, output topics and
// operator state from the latest valid checkpoint before consuming — so
// calling it again on the same pipeline after a crash resumes from the last
// checkpoint and regenerates byte-identical output — and captures new
// checkpoints at poll-batch boundaries per the configured triggers.
//
// The serial merge (merge.go) produces each critical point's synopsis
// record as it drains the point, and the triples, links and forecasts of a
// whole poll batch together once the batch has passed its stages, before
// committing it. Every partition of every output topic receives its records
// in the order one produce per record gives; only the interleaving across
// topics follows the stages. Each stage's time is a core.stage.<name>.ns
// counter.
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
func (p *Pipeline) RunWithRecovery(ctx context.Context, rc *RecoveryConfig) (_ Summary, err error) {
	if rc == nil {
		rc = &RecoveryConfig{}
	}
	cpr, inj := rc.Checkpointer, rc.Injector

	// Build the operator set fresh; configuration-derived structure
	// (thresholds, grids, masks, automata) is rebuilt, dynamic state is
	// restored from the checkpoint below.
	//
	// Per-trajectory operators (synopses, area monitor, FLP, profiler, the
	// Dashboard's positions and predictions) live inside the shard plane's
	// workers, one mover table each, each worker on its own goroutine;
	// shards=1 is a plane of one. Cross-entity operators (link discovery,
	// CER, RDF sequencing, broker output) stay on this goroutine — the
	// serial merge — which applies worker results in global submit order,
	// so published output is byte-identical whatever the shard count.
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
	m := p.newMerge(plane, inj)

	p.log.Info("real-time run starting", "checkpointing", cpr != nil, "faults", inj != nil)
	p.watchdog.SetCheckpointInterval(rc.Interval)

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
		if m.disc != nil {
			cpr.Register("linkdisc", m.disc)
		}
		if p.forecaster != nil {
			cpr.Register("cer", p.forecaster)
		}
		cpr.Register("summary", m)

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
			return m.sum, err
		}
		if cp != nil {
			p.log.Info("restored from checkpoint",
				"generation", cp.Generation, "records", m.sum.RawIn, "shards", shards)
		}
		if cp == nil && p.forecaster != nil {
			// Cold start: Restore rewound the broker to generation zero, and
			// the forecaster restarts with it.
			p.forecaster.Reset()
		}
	}

	plane.Start()

	// The consumer is created after the restore: it starts at the
	// committed offsets as they stand when it opens.
	m.cons, err = p.Broker.NewConsumer(sourceGroup, TopicRaw, sourceMember)
	if err != nil {
		return m.sum, err
	}
	defer m.cons.Close()
	// Capture end-of-run component stats for Pipeline.Stats (runs before
	// the consumer's Close: deferred calls execute last-in first-out).
	defer func() {
		// An exit on the context's error at the loop top or in a blocking
		// Poll leaves the plane drained (a batch fetched ahead is applied
		// before the loop top) and every applied record's output produced
		// and the record committed: stage that cut for a caller-driven final
		// capture.
		if cpr != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) && plane.Pending() == 0 {
			if berr := barrier(cpr, plane, shardSnaps); berr != nil {
				err = errors.Join(err, berr)
			}
		}
		// On the crash/error return path the plane may still have workers
		// mid-record; stop them (idempotent) before reading their state.
		plane.Close()
		p.mu.Lock()
		p.lastSyn = aggregateSynStats(workers)
		p.lastProf = profilerOf(workers)
		if m.disc != nil {
			p.lastLink = m.disc.Stats()
		}
		p.lastCons = m.cons.Stats()
		p.lastSum = m.sum
		p.mu.Unlock()
	}()

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
	//
	// Whether a checkpoint is cut once batch k is applied is decided before
	// k+1 is polled, because k+1 is fetched only when no cut falls between
	// the two: at a cut the consumer's fetch positions must equal the group's
	// committed offsets. The interval trigger reads the pipeline's injected
	// clock, never the wall clock directly: a run driven by an
	// obs.ManualClock checkpoints at deterministic points, so replay stays
	// byte-identical.
	cur := make([]msg.Record, 0, pollBatch)
	next := make([]msg.Record, 0, pollBatch)
	recsSinceCp, lastCp := 0, p.clock.Now()
	m.last = lastCp // the loop's first stage boundary
	for {
		if len(cur) == 0 {
			// The broker returns buffered records regardless of ctx state, so
			// a cancelled context (SIGINT/SIGTERM in cmd/datacron) must be
			// checked here for shutdown to interrupt a drain of queued
			// records. A batch already in flight is applied first, so the
			// exit leaves the plane drained.
			if err := ctx.Err(); err != nil {
				return m.sum, err
			}
			recs, err := m.poll(ctx, true, cur)
			if errors.Is(err, msg.ErrClosed) {
				break
			}
			if err != nil {
				return m.sum, err
			}
			if cur = recs; len(cur) == 0 {
				continue // dropped: poll it again
			}
		}
		due := cpr != nil && ((rc.EveryRecords > 0 && recsSinceCp+len(cur) >= rc.EveryRecords) ||
			(rc.Interval > 0 && p.clock.Now().Sub(lastCp) >= rc.Interval))
		next = next[:0]
		if !p.noPrefetch && !due && ctx.Err() == nil && (inj == nil || !inj.CrashWithin(len(cur))) {
			if next, err = m.poll(ctx, false, next); err != nil {
				return m.sum, err
			}
		}
		if err := m.apply(ctx, cur); err != nil {
			return m.sum, err
		}
		// Checkpoints are captured only between poll batches, with nothing
		// fetched ahead: every record of the batch is committed, so the
		// consumer's fetch positions equal the group's committed offsets —
		// the consistent cut a restored run resumes from, replaying the
		// identical poll sequence.
		recsSinceCp += len(cur)
		if due {
			if err := barrier(cpr, plane, shardSnaps); err != nil {
				return m.sum, err
			}
			span := p.tracer.Start("checkpoint")
			gen, err := cpr.Capture(p.Broker)
			span.End()
			if err != nil {
				return m.sum, err
			}
			p.log.Debug("checkpoint captured", "generation", gen, "records", m.sum.RawIn, "span", span.ID())
			recsSinceCp, lastCp = 0, m.lap(m.tCheckpoint)
		}
		cur, next = next, cur
	}
	// Flush trajectory ends. Each worker flushes its own movers sorted by
	// (time, ID); the k-way merge with the same comparator reproduces the
	// exact sequence a single shard emits. The flushed points go through the
	// merge's stages from drain to publish; they have no originating record
	// in flight, so they carry no trace.
	plane.Close() // workers are single-threaded again after Close
	lists := make([][]finishedPoint, len(workers))
	for i, w := range workers {
		lists[i] = w.Flush()
	}
	flushed := shard.MergeSorted(lessCritical, lists...)
	now := m.lap(m.tDrain)
	for i := range flushed {
		if err := m.take(ctx, &flushed[i], nil, now); err != nil {
			return m.sum, err
		}
	}
	m.lap(m.tDrain)
	if err := m.emit(ctx); err != nil {
		return m.sum, err
	}
	for _, t := range outputTopics {
		if err := p.Broker.CloseTopic(t); err != nil {
			return m.sum, err
		}
	}
	m.sum.Compression = aggregateSynStats(workers).CompressionRatio()
	p.log.Info("real-time run complete",
		"records", m.sum.RawIn, "critical", m.sum.CriticalPoints,
		"triples", m.sum.Triples, "links", m.sum.Links, "shards", shards)
	return m.sum, nil
}
