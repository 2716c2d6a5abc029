package core

import (
	"context"
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

// merge is the real-time layer's serial merge. It polls batches into the
// shard plane and applies each one, drained in submit order, stage by stage:
// drain takes the batch's finished critical points and produces their
// synopses, then link, render, cer and publish each go over all of the
// batch's points in merge order, and commit commits the batch. Every output
// topic and Dashboard ring so receives exactly what merging one point at a
// time gives; only the interleaving across topics follows the stages. The
// merge owns the run's node sequence and summary, which it checkpoints as
// the "summary" operator, and it belongs to the run loop's goroutine.
type merge struct {
	p     *Pipeline
	plane *shard.Plane[workerIn, workerOut]
	cons  *msg.Consumer
	inj   *faultinject.Injector
	disc  *linkdisc.Discoverer // nil without link statics

	seq        int // the next critical point's node sequence number
	sum        Summary
	mRecords   *obs.Counter
	mWatermark *obs.Gauge
	// Freshness of the merge's stages; the per-trajectory stages observe
	// their own lag in the shard workers' registries (lag.decode.*).
	lagPredict, lagEmit obs.LagStage
	// The latest event time, and the latest stage boundary: one clock read
	// ends a stage and starts the next, so the stage timers add up to the
	// loop's elapsed time.
	maxEventTime, last time.Time
	// The run loop's stage timers, in the order a poll batch passes the
	// stages, and idle, the time a blocking poll waits for input: each is
	// core.stage.<stage>.ns, the nanoseconds spent in the stage.
	tPoll, tDrain, tLink, tRender, tCER, tPublish, tCommit, tCheckpoint, tIdle *obs.Counter

	// The batch being applied: its points in merge order, the links they
	// found, and its sampled records' traces, ended once it is published;
	// the poll stage's fan-out scratch, and the render and CER scratch.
	points []batchPoint
	links  []linkdisc.Link
	traced []*recordTrace
	submit []workerIn
	render *rdfgen.PointRenderer
	graph  rdfgen.PointGraph

	// The batch's output, staged for flushBatch: TopicTriples, TopicLinks
	// and TopicEvents records; the triples' lines in arena, which also holds
	// the links' values, and their subject keys back to back in keys, where
	// keySpans places triple i's key; the events' values in notes; and the
	// Dashboard's event notes back to back in dashText, dashEnds ending each.
	triples, linkRecs, events []msg.Record
	arena, notes              arena[byte]
	keys, dashText, note      []byte
	keySpans                  []keySpan
	dashEnds                  []int
}

// batchPoint is a critical point of the batch being applied: what its
// shard worker finished, its record's trace (nil unless sampled) and where
// its links sit in the batch's links.
type batchPoint struct {
	fp           *finishedPoint
	trace        *recordTrace
	linkLo, link int
}

// newMerge builds the merge of one run over plane, its metric handles
// resolved once in p's registry (nil-safe no-ops when instrumentation is
// off). The watermark gauge tracks the real-time layer's event-time front;
// the health watchdog pairs it with core.records to detect a stalled run.
func (p *Pipeline) newMerge(plane *shard.Plane[workerIn, workerOut], inj *faultinject.Injector) *merge {
	r := p.obs
	m := &merge{p: p, plane: plane, inj: inj, render: rdfgen.NewPointRenderer(), submit: make([]workerIn, pollBatch),
		mRecords: r.Counter("core.records"), mWatermark: r.Gauge("core.watermark.unixsec"),
		lagPredict: obs.NewLagStage(r, "predict"), lagEmit: obs.NewLagStage(r, "emit"),
		tPoll: r.Counter("core.stage.poll.ns"), tDrain: r.Counter("core.stage.drain.ns"),
		tLink: r.Counter("core.stage.link.ns"), tRender: r.Counter("core.stage.render.ns"),
		tCER: r.Counter("core.stage.cer.ns"), tPublish: r.Counter("core.stage.publish.ns"),
		tCommit: r.Counter("core.stage.commit.ns"), tCheckpoint: r.Counter("core.stage.checkpoint.ns"),
		tIdle: r.Counter("core.stage.idle.ns")}
	if len(p.cfg.Statics) > 0 {
		m.disc = linkdisc.NewDiscoverer(p.cfg.Link, p.cfg.Statics)
		m.disc.Instrument(p.obs)
	}
	return m
}

// lap ends the current stage, charging its timer the time since the last
// boundary, and returns its clock read, which starts the next stage.
func (m *merge) lap(stage *obs.Counter) time.Time {
	now := m.p.clock.Now()
	stage.Add(int64(now.Sub(m.last)))
	m.last = now
	return now
}

// poll is the poll stage: it fetches the next batch into buf, overwriting
// what buf held — with block false, only what is already buffered, and with
// block true waiting for it, which is the idle stage — applies the
// injector's fetch faults, and fans a kept batch out to the shard workers.
// It returns buf holding the batch, empty for an empty non-blocking poll
// and for a dropped batch.
func (m *merge) poll(ctx context.Context, block bool, buf []msg.Record) (recs []msg.Record, err error) {
	span := m.p.tracer.Start("poll")
	if block {
		recs, err = m.cons.PollInto(ctx, buf[:0], pollBatch)
		m.lap(m.tIdle)
	} else {
		recs, err = m.cons.TryPollInto(buf[:0], pollBatch)
	}
	span.End()
	if err != nil || len(recs) == 0 {
		return recs, err
	}
	if m.inj != nil && m.inj.DropBatch() {
		// Simulated lost fetch response: rewind the consumer's position
		// so the batch is polled again, as a real client would re-fetch
		// after a fetch timeout.
		return recs[:0], m.cons.SeekTo(recs[0].Partition, recs[0].Offset)
	}
	// Sampling is decided here, in batch order: the decision stream is
	// identical whatever the shard count, and — because it depends only on
	// the record ordinal — identical again under replay.
	//
	// The batch goes to the plane through SubmitBatch — one credit
	// acquisition pass per lane instead of one select per record — via the
	// submit scratch, sized for a whole poll batch, so the fan-out allocates
	// nothing per record. Each workerIn points at its record in buf. Two poll
	// batches in flight fit the plane's queue of twice the poll batch.
	ins := m.submit[:len(recs)]
	for i := range recs {
		ins[i] = m.p.newWorkerIn(&recs[i])
	}
	if err := m.plane.SubmitBatch(ctx, ins); err != nil {
		return recs[:0], err
	}
	return recs, nil
}

// apply drains one submitted batch from the plane in submit order, takes it
// through the merge's stages and commits it. A poll batch is one
// partition's run of consecutive offsets (msg.Consumer.PollInto), so one
// commit of its last applied record covers it; a corrupt record is dropped
// uncommitted, so the group's committed offsets end exactly where a commit
// per applied record would leave them. The commit follows the publish, so a
// committed record's output is always on the topics.
func (m *merge) apply(ctx context.Context, recs []msg.Record) error {
	span := m.p.tracer.Start("process")
	defer span.End()
	defer m.endTraces()
	now := m.lap(m.tPoll) // the batch's processing time in its lag stages
	applied := -1
	for i := range recs {
		if m.inj != nil {
			if err := m.inj.BeforeRecord(); err != nil {
				// Simulated crash: undrained worker outputs are discarded
				// with the process state, exactly like a real crash
				// mid-batch.
				return err
			}
		}
		out, err := m.plane.Next()
		if err != nil {
			return err
		}
		if out.trace != nil {
			if len(out.cps) > 0 {
				out.trace.emit = out.trace.root.Child("emit")
			}
			//lint:ignore boundedchan emptied by every endTraces: at most one poll batch's records
			m.traced = append(m.traced, out.trace)
		}
		if !out.ok {
			continue // corrupt record: dropped by the cleaning stage
		}
		applied = i
		m.sum.RawIn++
		m.mRecords.Inc()
		if out.eventTime.After(m.maxEventTime) {
			m.maxEventTime = out.eventTime
			m.mWatermark.Set(float64(m.maxEventTime.Unix()))
		}
		if out.valid {
			m.sum.AreaEvents += out.areaEvents
			if out.predicted {
				m.sum.Predictions++
				// Prediction freshness is the headline SLO family: the lag
				// between a mover's event time and the moment its future
				// locations became available to serve.
				m.lagPredict.Observe(now, out.eventTime)
			}
		}
		for j := range out.cps {
			if err := m.take(ctx, &out.cps[j], out.trace, now); err != nil {
				return err
			}
		}
	}
	m.lap(m.tDrain)
	if err := m.emit(ctx); err != nil {
		return err
	}
	if applied >= 0 {
		m.cons.Commit(recs[applied])
	}
	m.lap(m.tCommit)
	return nil
}

// take is the drain stage of one finished critical point: it produces the
// point's synopsis record — TopicSynopses is the emit the freshness SLO is
// written against, so it is not held back for the rest of the batch — adds
// the point to the Dashboard and queues it for the later stages. now is the
// batch's processing time.
func (m *merge) take(ctx context.Context, fp *finishedPoint, trace *recordTrace, now time.Time) error {
	m.lagEmit.Observe(now, fp.Time)
	m.sum.CriticalPoints++
	m.p.Dashboard.AddCritical(fp.CriticalPoint)
	//lint:ignore boundedchan emptied by every emit: at most one poll batch's critical points
	m.points = append(m.points, batchPoint{fp: fp, trace: trace})
	_, err := m.p.Broker.Produce(ctx, TopicSynopses, fp.ID, fp.record, fp.Time)
	return err
}

// emit takes the points drain queued through the link, render, cer and
// publish stages, each over every point in merge order.
func (m *merge) emit(ctx context.Context) error {
	m.links = m.links[:0]
	for i := range m.points {
		pt := &m.points[i]
		pt.linkLo = len(m.links)
		if m.disc != nil {
			m.links = m.disc.AppendPoint(m.links, pt.fp.ID, pt.fp.Time, pt.fp.Pos)
		}
		pt.link = len(m.links)
	}
	m.lap(m.tLink)
	// RDF-ify: each point's whole graph — template, weather annotations,
	// then link triples — rendered to N-Triples lines and staged. A link is
	// stamped with the time of the point that produced it, so the point's
	// time is every record's time.
	for i := range m.points {
		pt := &m.points[i]
		links := m.links[pt.linkLo:pt.link]
		row := rdfgen.PointRow{Seq: m.seq, Point: &pt.fp.CriticalPoint, Weather: m.p.cfg.Weather != nil,
			Wind: pt.fp.wind, Wave: pt.fp.wave, Links: links}
		m.render.Render(&m.graph, &row)
		recs := m.stageTriples(&m.graph, pt.fp.Time)
		// The link lines close the graph; each is also the value of its
		// link's TopicLinks record, keyed by its source.
		linkRecs := recs[len(recs)-len(links):]
		for j, l := range links {
			m.p.Dashboard.AddLink(l)
			//lint:ignore boundedchan emptied by every flushBatch: at most one poll batch's links
			m.linkRecs = append(m.linkRecs, msg.Record{Key: l.Source, Value: linkRecs[j].Value, Time: l.Time})
		}
		m.sum.Links += int64(len(links))
		m.sum.Triples += int64(len(recs))
		m.seq++
	}
	m.lap(m.tRender)
	// Complex event forecasting over the critical-point type stream.
	if fc := m.p.forecaster; fc != nil {
		for i := range m.points {
			pt := &m.points[i]
			span := pt.trace.rootSpan().Child("cer")
			detected, f, ok := fc.Process(string(pt.fp.Type))
			if detected {
				m.sum.Detections++
				m.note = appendDetectionNote(m.note[:0], pt.fp.ID, pt.fp.Time)
				m.stageNote(m.note)
			}
			if ok {
				m.sum.Forecasts++
				m.note = appendForecastNote(m.note[:0], pt.fp.ID, f)
				m.stageNote(m.note)
				//lint:ignore boundedchan emptied by every flushBatch: at most one forecast per critical point of a poll batch
				m.events = append(m.events, msg.Record{Key: pt.fp.ID, Value: m.notes.clone(m.note), Time: pt.fp.Time})
			}
			span.End()
		}
	}
	m.lap(m.tCER)
	m.points = m.points[:0]
	err := m.flushBatch(ctx)
	m.lap(m.tPublish)
	return err
}

// endTraces ends the traces of the batch's sampled records, each record's
// emit span and then its root, whether the batch was applied or failed.
func (m *merge) endTraces() {
	for _, t := range m.traced {
		t.emit.End()
		t.root.End()
	}
	m.traced = m.traced[:0]
}

// Snapshot checkpoints the merge's own state: the RDF node sequence and
// the run summary. Its blob is
//
//	tag 0xC2 | version | varint seq | varint rawIn | varint criticalPoints |
//	varint areaEvents | varint links | varint triples | varint predictions |
//	varint detections | varint forecasts | f64 compression
func (m *merge) Snapshot() ([]byte, error) {
	cs := counters(&m.sum)
	size := wire.HeaderLen + wire.VarintLen(int64(m.seq)) + 8
	for _, c := range cs {
		size += wire.VarintLen(*c)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagRunState)
	buf = wire.AppendVarint(buf, int64(m.seq))
	for _, c := range cs {
		buf = wire.AppendVarint(buf, *c)
	}
	return wire.AppendFloat64(buf, m.sum.Compression), nil
}

// Restore sets the node sequence and summary from a Snapshot blob, or
// leaves them as they were when it rejects the blob.
func (m *merge) Restore(data []byte) error {
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
	m.seq, m.sum = seq, sum
	return nil
}

// counters lists the summary's integer fields in blob order.
func counters(s *Summary) [8]*int64 {
	return [...]*int64{&s.RawIn, &s.CriticalPoints, &s.AreaEvents, &s.Links,
		&s.Triples, &s.Predictions, &s.Detections, &s.Forecasts}
}

// barrier coordinates a consistent cut across the plane and stages the
// per-shard snapshots for the next Capture. It is called only between fully
// drained poll batches, and only when checkpointing.
func barrier(cpr *checkpoint.Checkpointer, plane *shard.Plane[workerIn, workerOut], snaps *checkpoint.ShardSnapshots) error {
	epoch := cpr.NextGeneration()
	states, err := plane.Barrier(epoch)
	if err != nil {
		return err
	}
	return snaps.SetEpoch(epoch, states)
}
