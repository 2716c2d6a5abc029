package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"datacron/internal/flp"
	"datacron/internal/gen"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/synopses"
	"datacron/internal/va"
)

// shardOps are the operator names every shard worker snapshot contains;
// checkpoint.ShardSnapshots maps them to "shard/<i>/<op>" entries, at every
// shard count. A worker's whole state is its mover table.
var shardOps = []string{"movers"}

// recordTrace is a sampled record's span tree in flight: root is the
// "record" span, submit the queue-wait child the worker closes when it picks
// the record up, and emit the merge's child from the drain of the record's
// critical points to their publish. Records travel with a nil *recordTrace
// unless sampled (1 in 256 by default), so the per-record hop copies one
// pointer, not three spans.
type recordTrace struct {
	root, submit, emit obs.Span
}

// rootSpan returns the record's trace root, or the zero Span — whose every
// child no-ops — for an unsampled record.
func (t *recordTrace) rootSpan() obs.Span {
	if t == nil {
		return obs.Span{}
	}
	return t.root
}

// workerIn is one record on its way to a shard worker, together with its
// trace, nil when the record is not sampled. rec points into the run loop's
// poll buffer, which is not refilled until the record's batch is applied, so
// the record is copied once, out of the broker's log, and never again on its
// way to the worker.
type workerIn struct {
	rec   *msg.Record
	trace *recordTrace
}

// workerOut is one record's shard-local result, applied by the coordinator
// in submit order. Every submitted record yields exactly one workerOut, so
// the merged stream is position-for-position identical to a serial run.
// The report itself stays in the worker, which has already written its
// position and prediction to the Dashboard. trace carries the record's span
// tree back to the coordinator, which parents the serial-stage spans (cer,
// emit) to its root and ends it.
type workerOut struct {
	ok         bool            // unmarshal succeeded
	valid      bool            // the report is Valid
	predicted  bool            // FLP predicted the mover's future locations
	eventTime  time.Time       // the report's event time
	areaEvents int64           // low-level events detected at this report
	cps        []finishedPoint // critical points, nil when none
	trace      *recordTrace
}

// finishedPoint is a critical point as a shard worker hands it to the serial
// merge: everything about it that needs no global order is already done, so
// the merge only numbers, links, forecasts and publishes it.
type finishedPoint struct {
	synopses.CriticalPoint
	record     []byte  // the TopicSynopses value, in the worker's arena
	wind, wave float64 // the weather at the point, zero without a weather field
}

// newWorkerIn wraps one polled record for a shard worker and decides trace
// sampling. A sampled record gets a root "record" span annotated with its
// mover and partition, an already-closed "ingest" child covering the broker
// dwell (event time → coordinator pickup), and an open "submit" child the
// worker closes on pickup. The unsampled majority carries no trace, so every
// downstream stage span no-ops.
func (p *Pipeline) newWorkerIn(rec *msg.Record) workerIn {
	if !p.sampler.Admit() {
		return workerIn{rec: rec}
	}
	root := p.tracer.StartSpan("record",
		obs.Attr{Key: "mover", Value: rec.Key},
		obs.Attr{Key: "partition", Value: strconv.Itoa(rec.Partition)})
	root.ChildAt("ingest", rec.Time).End()
	return workerIn{rec: rec, trace: &recordTrace{root: root, submit: root.Child("submit")}}
}

// shardWorker is one shard's operator chain: exactly the per-trajectory
// stages of the run loop (decoding, synopses, area monitoring, future
// location prediction, trajectory profiling, the Dashboard's position and
// prediction). All its state is one mover table keyed by mover ID, and the
// plane routes every record of a mover to the same shard, so the chain needs
// no locking beyond a mover's own Dashboard slot. Cross-entity stages (link
// discovery, CER, RDF sequencing, broker output) stay on the coordinator.
type shardWorker struct {
	shard int
	// shardAttrs ("shard"=<i>) is stamped on this worker's stage spans. It
	// is built once and passed with ..., so a Child call does not allocate
	// a variadic slice per record, sampled or not; spans only read it.
	shardAttrs []obs.Attr
	// movers holds every mover's state; sg and areaMon are the operators'
	// configuration and counters, stepped over a mover's parts.
	movers    map[string]*mover
	sg        *synopses.Generator
	areaMon   *lowlevel.AreaMonitor
	sample    time.Duration
	steps     int
	dash      *va.Dashboard
	clock     obs.Clock
	lagDecode obs.LagStage // "lag.decode.*" in the worker's own registry

	// scratch is the in-place decode target. Worker-local by construction —
	// Process runs only on the worker goroutine — so no locking; the
	// strings a decoded report carries are its mover's, immutable and safe
	// to share downstream.
	scratch mobility.Report

	// Finishing critical points: cps is the generator's reused output
	// buffer, points the arena the finished points are carved from (the
	// merge reads each record's while the worker carves the next's), records
	// the arena their synopsis records are encoded into (the broker owns
	// each once the merge produces it), and weather the pipeline's field,
	// read-only and so shared by every worker.
	cps     []synopses.CriticalPoint
	points  arena[finishedPoint]
	records arena[byte]
	weather *gen.WeatherField
}

func (p *Pipeline) newShardWorker(shard int, reg *obs.Registry) *shardWorker {
	sg := synopses.NewGenerator(p.cfg.Synopses)
	sg.Instrument(reg)
	return &shardWorker{
		shard:      shard,
		shardAttrs: []obs.Attr{{Key: "shard", Value: strconv.Itoa(shard)}},
		movers:     map[string]*mover{},
		sg:         sg,
		areaMon:    lowlevel.NewAreaMonitor(p.cfg.Regions, 64),
		sample:     p.cfg.SampleInterval,
		steps:      p.cfg.PredictSteps,
		dash:       p.Dashboard,
		clock:      reg.Clock(),
		lagDecode:  obs.NewLagStage(reg, "decode"),
		weather:    p.cfg.Weather,
	}
}

// Process runs the shard-local stages for one raw record.
func (w *shardWorker) Process(in workerIn) workerOut {
	if in.trace != nil {
		in.trace.submit.End() // queue wait, coordinator submit → worker pickup
	}
	root := in.trace.rootSpan()
	decodeSpan := root.Child("decode", w.shardAttrs...)
	// In-place decode with zero steady-state allocations: the report's ID
	// bytes find its mover, whose strings the report then carries. A
	// payload that is not a binary report is rejected like any other
	// corrupt record.
	id, src, err := mobility.DecodeFields(in.rec.Value, &w.scratch)
	if err != nil {
		decodeSpan.End()
		// Corrupt record: dropped by the cleaning stage. The trace still
		// travels back so the coordinator ends it.
		return workerOut{trace: in.trace}
	}
	m := w.moverOf(id, src)
	decodeSpan.End()
	w.scratch.ID, w.scratch.Source = m.id, m.source
	r := w.scratch
	w.lagDecode.Observe(w.clock.Now(), r.Time)
	out := workerOut{ok: true, valid: r.Valid(), eventTime: r.Time, trace: in.trace}
	// Each operator steps the mover's own part in O(1); the synopses track
	// is stepped for an invalid report too, which it counts as dropped.
	var track *synopses.Track
	if out.valid {
		track = &m.track
		out.areaEvents = int64(w.areaMon.Step(&m.area, r.Pos).Len())
		flpSpan := root.Child("flp", w.shardAttrs...)
		if m.pred == nil {
			m.pred = flp.NewRMFStar(w.sample)
			m.prof.MoverID = m.id
		}
		m.pred.Observe(r)
		m.future = m.pred.AppendPredict(m.future[:0], w.steps)
		out.predicted = len(m.future) > 0
		flpSpan.End()
		m.prof.Observe(r)
		if m.slot == nil {
			m.slot = w.dash.Slot(m.id)
		}
		m.slot.Set(r, m.future)
	}
	synSpan := root.Child("synopses", w.shardAttrs...)
	w.cps = w.sg.AppendStep(w.cps[:0], track, r)
	out.cps = w.finish(w.cps)
	synSpan.End()
	return out
}

// finish returns cps as finished points carved from the worker's points
// arena (nil for no points): each point's synopsis record encoded into its
// records arena and, with a weather field, its wind and wave read.
func (w *shardWorker) finish(cps []synopses.CriticalPoint) []finishedPoint {
	if len(cps) == 0 {
		return nil
	}
	out := w.points.alloc(len(cps))[:len(cps)]
	for i := range cps {
		fp := &out[i]
		fp.CriticalPoint = cps[i]
		fp.record = fp.AppendRecord(w.records.alloc(fp.RecordSize()))
		if w.weather != nil {
			fp.wind, fp.wave = w.weather.WindAndWave(fp.Pos, fp.Time)
		}
	}
	return out
}

// Snapshot encodes the worker's mover table under the shardOps name, for
// the coordinated checkpoint barrier.
func (w *shardWorker) Snapshot() (map[string][]byte, error) {
	return map[string][]byte{"movers": w.snapshotMovers()}, nil
}

// Restore rehydrates the worker's mover table from barrier blobs.
func (w *shardWorker) Restore(ops map[string][]byte) error {
	blob, ok := ops["movers"]
	if !ok {
		return fmt.Errorf("shard %d: restore: missing operator %q", w.shard, "movers")
	}
	if err := w.restoreMovers(blob); err != nil {
		return shardOpErr(w.shard, "restore", err)
	}
	return nil
}

func shardOpErr(shard int, verb string, err error) error {
	return fmt.Errorf("shard %d: %s movers: %w", shard, verb, err)
}

// Flush ends every open trajectory on this shard, returning the closing
// critical points finished and in (time, ID) order — the coordinator k-way
// merges the per-shard lists with the same comparator.
func (w *shardWorker) Flush() []finishedPoint {
	var cps []synopses.CriticalPoint
	for _, m := range w.sortedMovers() {
		cps = w.sg.AppendEnd(cps, &m.track)
	}
	// Ascending IDs in, so a stable sort by time leaves (time, ID) order.
	sort.SliceStable(cps, func(i, j int) bool { return cps[i].Time.Before(cps[j].Time) })
	return w.finish(cps)
}

// aggregateSynStats sums synopses stats across shard workers.
func aggregateSynStats(workers []*shardWorker) synopses.Stats {
	var out synopses.Stats
	for _, w := range workers {
		s := w.sg.Stats()
		out.In += s.In
		out.Dropped += s.Dropped
		out.Critical += s.Critical
	}
	return out
}

// lessCritical is the flush merge comparator, matching the (time, ID)
// order synopses.Generator.Flush emits.
func lessCritical(a, b finishedPoint) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.ID < b.ID
}
