package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"datacron/internal/cer"
	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/core"
	"datacron/internal/flp"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/rdfgen"
	"datacron/internal/shard"
	"datacron/internal/synopses"
	"datacron/internal/va"
)

// This file rebuilds the run loop of internal/core/recovery.go from the
// layers' public functions, in the same order, with a span around every call
// into a layer. It exists to attribute time: core's own loop cannot be timed
// from outside, so the shadow does the same work where each call can be. The
// proof that it is the same work is the output digest, which must equal
// core's. What the shadow leaves out is core's private glue — record-trace
// sampling, lag stages, per-stage counters, logging — and that is exactly
// what core.residual_ns_per_record reports.

// The consumer identity and poll size of core's run loop.
const (
	sourceGroup  = "realtime"
	sourceMember = "rt-1"
	pollBatch    = 256
	ingestBatch  = 256
)

// shardOps are the per-worker operators in a sharded checkpoint.
var shardOps = []string{"synopses", "area", "flp"}

type shadowIn struct {
	rec   msg.Record
	batch int
}

type shadowOut struct {
	ok         bool
	rep        mobility.Report
	valid      bool
	areaEvents int64
	pred       []geo.Point
	cps        []synopses.CriticalPoint
}

// shadowWorker is core's shardWorker: the per-trajectory stages.
type shadowWorker struct {
	shard      int
	rec        *recorder
	ownRec     bool // on a plane goroutine: opens its own batch spans
	sg         *synopses.Generator
	areaMon    *lowlevel.AreaMonitor
	predictors map[string]flp.Predictor
	sample     time.Duration
	steps      int
	dec        *mobility.Decoder
	scratch    mobility.Report
	batch      int
	records    int64
	decodeFail int64
}

func (w *shadowWorker) Process(in shadowIn) shadowOut {
	if w.ownRec && in.batch != w.batch {
		w.rec.endBatch()
		w.batch = in.batch
		w.rec.beginBatch(in.batch, "batch")
	}
	w.records++
	w.rec.begin(opMobilityDecode)
	if err := w.dec.Decode(in.rec.Value, &w.scratch); err != nil {
		w.rec.end()
		w.decodeFail++
		return shadowOut{}
	}
	r := w.scratch
	out := shadowOut{ok: true, rep: r, valid: r.Valid()}
	if out.valid {
		w.rec.next(opLowlevelArea)
		out.areaEvents = int64(len(w.areaMon.Update(r)))
		w.rec.next(opFLP)
		pred, ok := w.predictors[r.ID]
		if !ok {
			pred = flp.NewRMFStar(w.sample)
			w.predictors[r.ID] = pred
		}
		pred.Observe(r)
		out.pred = pred.Predict(w.steps)
		w.rec.next(opSynopsesProcess)
	} else {
		w.rec.next(opSynopsesProcess)
	}
	out.cps = w.sg.Process(r)
	w.rec.end()
	return out
}

// closeBatch ends the worker's open batch span, once its goroutine stopped.
func (w *shadowWorker) closeBatch() {
	if w.ownRec {
		w.rec.endBatch()
		w.batch = -1
	}
}

// timedOp wraps an operator's Snapshot in a span. Restore passes through: it
// runs inside the checkpoint.restore span, which is reported whole.
type timedOp struct {
	checkpoint.Snapshotter
	rec *recorder
	op  op
}

func (t timedOp) Snapshot() ([]byte, error) {
	t.rec.begin(t.op)
	defer t.rec.end()
	return t.Snapshotter.Snapshot()
}

// predictorsOp checkpoints a worker's per-mover FLP predictors, as core's
// private predictorsSnapshotter does.
type predictorsOp struct {
	preds  map[string]flp.Predictor
	sample time.Duration
}

func (ps predictorsOp) Snapshot() ([]byte, error) {
	ids := make([]string, 0, len(ps.preds))
	for id := range ps.preds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make(map[string]json.RawMessage, len(ids))
	for _, id := range ids {
		blob, err := ps.preds[id].(*flp.RMFStar).Snapshot()
		if err != nil {
			return nil, predictorErr("snapshot", id, err)
		}
		out[id] = blob
	}
	return json.Marshal(out)
}

// predictorErr builds the loops' error outside them, where the repository's
// hotalloc analyzer (which walks this directory too) wants cold paths.
func predictorErr(verb, id string, err error) error {
	return fmt.Errorf("%s predictor %s: %w", verb, id, err)
}

func (ps predictorsOp) Restore(data []byte) error {
	var blobs map[string]json.RawMessage
	if err := json.Unmarshal(data, &blobs); err != nil {
		return fmt.Errorf("restore predictors: %w", err)
	}
	for id := range ps.preds {
		delete(ps.preds, id)
	}
	for id, blob := range blobs {
		pred := flp.NewRMFStar(ps.sample)
		if err := pred.Restore(blob); err != nil {
			return predictorErr("restore", id, err)
		}
		ps.preds[id] = pred
	}
	return nil
}

// op returns the named shard operator's Snapshotter, each in its span.
func (w *shadowWorker) op(name string) checkpoint.Snapshotter {
	switch name {
	case "synopses":
		return timedOp{w.sg, w.rec, opSnapSynopses}
	case "area":
		return timedOp{w.areaMon, w.rec, opSnapArea}
	default:
		return timedOp{predictorsOp{w.predictors, w.sample}, w.rec, opSnapFLP}
	}
}

func (w *shadowWorker) Snapshot() (map[string][]byte, error) {
	out := make(map[string][]byte, len(shardOps))
	for _, name := range shardOps {
		blob, err := w.op(name).Snapshot()
		if err != nil {
			return nil, fmt.Errorf("shard %d: snapshot %s: %w", w.shard, name, err)
		}
		out[name] = blob
	}
	return out, nil
}

func (w *shadowWorker) Restore(ops map[string][]byte) error {
	for _, name := range shardOps {
		blob, ok := ops[name]
		if !ok {
			return fmt.Errorf("shard %d: restore: missing operator %q", w.shard, name)
		}
		if err := w.op(name).Restore(blob); err != nil {
			return fmt.Errorf("shard %d: restore %s: %w", w.shard, name, err)
		}
	}
	return nil
}

// runStateOp checkpoints the RDF node sequence and the run summary.
type runStateOp struct {
	seq *int
	sum *core.Summary
}

type runState struct {
	Seq int          `json:"seq"`
	Sum core.Summary `json:"sum"`
}

func (r runStateOp) Snapshot() ([]byte, error) {
	return json.Marshal(runState{Seq: *r.seq, Sum: *r.sum})
}

func (r runStateOp) Restore(data []byte) error {
	var st runState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("restore run state: %w", err)
	}
	*r.seq, *r.sum = st.Seq, st.Sum
	return nil
}

// timedStore times Save, the part of a capture that leaves the process.
type timedStore struct {
	checkpoint.Store
	rec   *recorder
	bytes []int
}

func (s *timedStore) Save(gen uint64, data []byte) error {
	s.rec.begin(opCheckpointSave)
	defer s.rec.end()
	s.bytes = append(s.bytes, len(data))
	return s.Store.Save(gen, data)
}

// shadow is the pipeline-lifetime state of the rebuilt loop: what core keeps
// on its Pipeline across restarts.
type shadow struct {
	in     input
	shards int
	rec    *recorder
	reg    *obs.Registry
	broker *msg.Broker
	dash   *va.Dashboard
	prof   *lowlevel.Profiler
	fc     *cer.Forecaster

	// Recovery: nil store means a plain RunRealTime.
	store *timedStore
	cpr   *checkpoint.Checkpointer
	every int
	inj   *faultinject.Injector

	workerRecs []*recorder // one per shard worker when shards>1

	// Counters the per-layer metrics are built from.
	sum          core.Summary
	bytesOut     int64
	decodeFail   int64
	shardRecords []int64
	replayed     int64 // records processed before the crash and again after it
	crashRawIn   int64 // RawIn when the injector killed the run
	restarts     int
	setupNs      []time.Duration // NewDiscoverer, once per attempt
	mergeBusy    time.Duration   // coordinator self time in layer calls, waiting in Next excluded
	workerBusy   time.Duration   // workers' self time in layer calls, all workers summed
}

// newShadow builds the component set core.New builds.
func newShadow(in input, shards int, spans bool, spec *recoverySpec, outDir string) (*shadow, func(), error) {
	epoch := time.Now()
	s := &shadow{
		in: in, shards: shards,
		rec:    newRecorder(spans, "coordinator", epoch, 0),
		reg:    obs.NewRegistry(obs.WallClock{}),
		broker: msg.NewBroker(),
		dash:   va.NewDashboard(1000),
		prof:   lowlevel.NewProfiler(),

		shardRecords: make([]int64, shards),
	}
	if shards > 1 {
		for i := 0; i < shards; i++ {
			s.workerRecs = append(s.workerRecs, newRecorder(spans, fmt.Sprintf("worker%d", i), epoch, (i+1)<<40))
		}
	}
	for _, t := range append([]string{core.TopicRaw}, outputTopics...) {
		if err := s.broker.CreateTopic(t, in.cfg.Partitions); err != nil {
			return nil, nil, err
		}
	}
	s.broker.Instrument(s.reg)
	if in.cfg.Pattern != "" {
		pat, err := cer.ParsePattern(in.cfg.Pattern)
		if err != nil {
			return nil, nil, err
		}
		model := cer.LearnModel(in.cfg.TrainSymbols, in.cfg.Alphabet, in.cfg.ModelOrder, 1)
		s.fc, err = cer.NewForecaster(pat, in.cfg.Alphabet, model, 200, in.cfg.Theta)
		if err != nil {
			return nil, nil, err
		}
	}
	cleanup := func() {}
	if spec != nil {
		dir, rm, err := openStore(outDir)
		if err != nil {
			return nil, nil, err
		}
		cleanup = rm
		s.store = &timedStore{Store: dir, rec: s.rec}
		if s.cpr, err = checkpoint.NewCheckpointer(s.store, 3); err != nil {
			cleanup()
			return nil, nil, err
		}
		s.every, s.inj = spec.everyRecords, crashInjector(spec)
	}
	return s, cleanup, nil
}

// ingest is core.Pipeline.Ingest: 256-report chunks, each encoded into one
// arena and produced as one broker batch, then the raw topic is closed.
func (s *shadow) ingest(ctx context.Context) error {
	s.rec.beginBatch(-1, "ingest")
	defer s.rec.endBatch()
	recs := make([]msg.Record, ingestBatch)
	reports := s.in.reports
	for base := 0; base < len(reports); base += ingestBatch {
		chunk := reports[base:min(base+ingestBatch, len(reports))]
		s.rec.begin(opMobilityEncode)
		batch := encodeChunk(chunk, recs)
		s.rec.next(opMsgIngestProduce)
		_, err := s.broker.ProduceBatch(ctx, core.TopicRaw, batch)
		s.rec.end()
		if err != nil {
			return err
		}
	}
	return s.broker.CloseTopic(core.TopicRaw)
}

// produce is one Broker.Produce to an output topic, in its span.
func (s *shadow) produce(ctx context.Context, topic, key string, value []byte, ts time.Time) error {
	s.rec.begin(opMsgProduce)
	_, err := s.broker.Produce(ctx, topic, key, value, ts)
	s.rec.end()
	s.bytesOut += int64(len(value))
	return err
}

// publishTriples is core's publishTriples with the N-Triples encoding and
// the produce in separate spans.
func (s *shadow) publishTriples(ctx context.Context, triples []rdf.Triple, ts time.Time) error {
	for _, t := range triples {
		s.rec.begin(opRdfEncode)
		key, line := t.S.Key(), []byte(t.String())
		s.rec.end()
		if err := s.produce(ctx, core.TopicTriples, key, line, ts); err != nil {
			return err
		}
	}
	return nil
}

// attempt is one call of core's RunWithRecovery: build the operators fresh,
// restore from the latest checkpoint when checkpointing, consume until the
// raw topic closes (or the injector kills the run), flush, close the output
// topics.
func (s *shadow) attempt(ctx context.Context) error {
	cfg := s.in.cfg
	rec := s.rec
	rec.beginBatch(-1, "start")
	defer rec.endBatch() // whichever batch or phase is open when the attempt ends

	workers := make([]*shadowWorker, s.shards)
	for i := range workers {
		reg, wrec := s.reg, rec
		if s.shards > 1 {
			reg, wrec = obs.NewRegistry(obs.WallClock{}), s.workerRecs[i]
		}
		sg := synopses.NewGenerator(cfg.Synopses)
		sg.Instrument(reg)
		workers[i] = &shadowWorker{
			shard: i, rec: wrec, ownRec: s.shards > 1, batch: -1,
			sg: sg, areaMon: lowlevel.NewAreaMonitor(cfg.Regions, 64),
			predictors: map[string]flp.Predictor{},
			sample:     cfg.SampleInterval, steps: cfg.PredictSteps,
			dec: mobility.NewDecoder(),
		}
	}
	var plane *shard.Plane[shadowIn, shadowOut]
	if s.shards > 1 {
		plane = shard.New(shard.Config{Shards: s.shards, Queue: 2 * pollBatch, Metrics: s.reg},
			func(in shadowIn) string { return in.rec.Key },
			func(i int) shard.Worker[shadowIn, shadowOut] { return workers[i] })
		defer func() {
			plane.Close()
			for _, w := range workers {
				w.closeBatch()
				s.decodeFail += w.decodeFail
				s.shardRecords[w.shard] += w.records
			}
		}()
	} else {
		defer func() {
			s.decodeFail += workers[0].decodeFail
			s.shardRecords[0] += workers[0].records
		}()
	}

	var disc *linkdisc.Discoverer
	if len(cfg.Statics) > 0 {
		t0 := time.Now()
		rec.begin(opLinkdiscSetup)
		disc = linkdisc.NewDiscoverer(cfg.Link, cfg.Statics)
		rec.end()
		s.setupNs = append(s.setupNs, time.Since(t0))
		disc.Instrument(s.reg)
	}
	rdfGen := rdfgen.CriticalPointGenerator()
	seq := 0
	sum := &s.sum
	*sum = core.Summary{}

	var shardSnaps *checkpoint.ShardSnapshots
	if s.cpr != nil {
		s.cpr.Instrument(s.reg)
		s.cpr.RegisterSource(sourceGroup, core.TopicRaw)
		for _, t := range outputTopics {
			s.cpr.RegisterOutput(t)
		}
		if s.shards == 1 {
			s.cpr.Register("synopses", workers[0].op("synopses"))
			s.cpr.Register("area", workers[0].op("area"))
		} else {
			shardSnaps = checkpoint.NewShardSnapshots(s.shards, shardOps)
			shardSnaps.Register(s.cpr)
		}
		if disc != nil {
			s.cpr.Register("linkdisc", timedOp{disc, rec, opSnapLinkdisc})
		}
		if s.fc != nil {
			s.cpr.Register("cer", timedOp{s.fc, rec, opSnapCER})
		}
		s.cpr.Register("profiler", timedOp{s.prof, rec, opSnapProfiler})
		if s.shards == 1 {
			s.cpr.Register("flp", workers[0].op("flp"))
		}
		s.cpr.Register("summary", runStateOp{seq: &seq, sum: sum})

		s.reg.Reset()
		rec.begin(opCheckpointRestore)
		cp, err := s.cpr.Restore(s.broker)
		if err == nil && cp != nil && shardSnaps != nil {
			for i, w := range workers {
				if err = w.Restore(shardSnaps.Restored(i)); err != nil {
					break
				}
			}
		}
		rec.end()
		if err != nil {
			return err
		}
		if cp == nil {
			s.broker.RestoreOffsets(sourceGroup, core.TopicRaw, nil)
			for _, t := range outputTopics {
				for i := 0; i < cfg.Partitions; i++ {
					if err := s.broker.Truncate(t, i, 0); err != nil {
						return err
					}
				}
			}
			s.prof.Reset()
			if s.fc != nil {
				s.fc.Reset()
			}
		}
	}
	if s.restarts > 0 {
		s.replayed += s.crashRawIn - sum.RawIn
	}

	if plane != nil {
		plane.Start()
	}
	cons, err := s.broker.NewConsumer(sourceGroup, core.TopicRaw, sourceMember)
	if err != nil {
		return err
	}
	defer cons.Close()

	linkTriple := make([]rdf.Triple, 1)
	processCritical := func(cp synopses.CriticalPoint) error {
		sum.CriticalPoints++
		rec.begin(opVADashboard)
		s.dash.AddCritical(cp)
		rec.next(opSynopsesMarshal)
		val := cp.Marshal()
		rec.end()
		if err := s.produce(ctx, core.TopicSynopses, cp.ID, val, cp.Time); err != nil {
			return err
		}
		rec.begin(opRdfgenGenerate)
		triples := rdfGen.Generate(rdfgen.CriticalPointRecord(seq, cp))
		if cfg.Weather != nil {
			node := ontology.NodeIRI(cp.ID, seq)
			triples = append(triples,
				rdf.Triple{S: node, P: ontology.PropWindSpeed,
					O: rdf.Float(cfg.Weather.WindSpeed(cp.Pos, cp.Time))},
				rdf.Triple{S: node, P: ontology.PropWaveHeight,
					O: rdf.Float(cfg.Weather.WaveHeight(cp.Pos, cp.Time))},
			)
		}
		rec.end()
		sum.Triples += int64(len(triples))
		if err := s.publishTriples(ctx, triples, cp.Time); err != nil {
			return err
		}
		if disc != nil {
			rec.begin(opLinkdiscPoint)
			links := disc.ProcessPoint(cp.ID, cp.Time, cp.Pos)
			rec.end()
			for _, l := range links {
				sum.Links++
				rec.begin(opVADashboard)
				s.dash.AddLink(l)
				rec.end()
				rec.begin(opRdfEncode)
				t := l.Triple()
				line := []byte(t.String())
				rec.end()
				if err := s.produce(ctx, core.TopicLinks, l.Source, line, l.Time); err != nil {
					return err
				}
				sum.Triples++
				linkTriple[0] = t
				if err := s.publishTriples(ctx, linkTriple, l.Time); err != nil {
					return err
				}
			}
		}
		if s.fc != nil {
			rec.begin(opCERProcess)
			detected, fc, ok := s.fc.Process(string(cp.Type))
			rec.end()
			if detected {
				sum.Detections++
				note := fmt.Sprintf("%s: pattern detected at %s", cp.ID, cp.Time.Format(time.RFC3339))
				rec.begin(opVADashboard)
				s.dash.AddEventNote(note)
				rec.end()
			}
			if ok {
				sum.Forecasts++
				note := fmt.Sprintf("%s: completion expected in %d-%d events (p=%.2f)", cp.ID, fc.Start, fc.End, fc.Prob)
				rec.begin(opVADashboard)
				s.dash.AddEventNote(note)
				rec.end()
				if err := s.produce(ctx, core.TopicEvents, cp.ID, []byte(note), cp.Time); err != nil {
					return err
				}
			}
		}
		seq++
		return nil
	}

	apply := func(r msg.Record, out shadowOut) error {
		if !out.ok {
			return nil
		}
		sum.RawIn++
		if out.valid {
			rec.begin(opLowlevelProfiler)
			s.prof.Observe(out.rep)
			rec.next(opVADashboard)
			sum.AreaEvents += out.areaEvents
			s.dash.UpdatePosition(out.rep)
			if out.pred != nil {
				sum.Predictions++
				s.dash.SetPrediction(out.rep.ID, out.pred)
			}
			rec.end()
		}
		for _, cp := range out.cps {
			if err := processCritical(cp); err != nil {
				return err
			}
		}
		rec.begin(opMsgCommit)
		cons.Commit(r)
		rec.end()
		return nil
	}

	checkpointNow := func() error {
		if plane != nil {
			epoch := s.cpr.NextGeneration()
			rec.begin(opShardBarrier)
			states, err := plane.Barrier(epoch)
			rec.end()
			if err != nil {
				return err
			}
			if err := shardSnaps.SetEpoch(epoch, states); err != nil {
				return err
			}
		}
		rec.begin(opCheckpointCapture)
		_, err := s.cpr.Capture(s.broker)
		rec.end()
		return err
	}

	rec.endBatch()
	var (
		recsSinceCp int
		ins         []shadowIn
		batch       int
	)
	for {
		rec.beginBatch(batch, "batch")
		rec.begin(opMsgPoll)
		recs, err := cons.Poll(ctx, pollBatch)
		rec.end()
		if errors.Is(err, msg.ErrClosed) {
			break
		}
		if err != nil {
			return err
		}
		if plane != nil {
			ins = ins[:0]
			for _, r := range recs {
				ins = append(ins, shadowIn{rec: r, batch: batch})
			}
			rec.begin(opShardSubmit)
			err := plane.SubmitBatch(ctx, ins)
			rec.end()
			if err != nil {
				return err
			}
		}
		for _, r := range recs {
			if s.inj != nil {
				if err := s.inj.BeforeRecord(); err != nil {
					s.crashRawIn = sum.RawIn
					return err
				}
			}
			var out shadowOut
			if plane != nil {
				rec.begin(opShardNext)
				out, err = plane.Next()
				rec.end()
				if err != nil {
					return err
				}
			} else {
				out = workers[0].Process(shadowIn{rec: r, batch: batch})
			}
			if err := apply(r, out); err != nil {
				return err
			}
		}
		recsSinceCp += len(recs)
		if s.cpr != nil && recsSinceCp >= s.every {
			if err := checkpointNow(); err != nil {
				return err
			}
			recsSinceCp = 0
		}
		rec.endBatch()
		batch++
	}
	// The last poll returned ErrClosed; its span closes as the flush phase.
	rec.endBatch()
	rec.beginBatch(-1, "flush")
	var ends []synopses.CriticalPoint
	rec.begin(opSynopsesFlush)
	if plane != nil {
		plane.Close()
		lists := make([][]synopses.CriticalPoint, len(workers))
		for i, w := range workers {
			lists[i] = w.sg.Flush()
		}
		ends = shard.MergeSorted(func(a, b synopses.CriticalPoint) bool {
			if !a.Time.Equal(b.Time) {
				return a.Time.Before(b.Time)
			}
			return a.ID < b.ID
		}, lists...)
	} else {
		ends = workers[0].sg.Flush()
	}
	rec.end()
	for _, cp := range ends {
		if err := processCritical(cp); err != nil {
			return err
		}
	}
	for _, t := range outputTopics {
		if err := s.broker.CloseTopic(t); err != nil {
			return err
		}
	}
	return nil
}

// run drives attempts to the end of the stream, the way runToEnd drives
// core, then folds the workers' spans into the coordinator's recorder.
func (s *shadow) run(ctx context.Context) error {
	err := s.attempt(ctx)
	for errors.Is(err, faultinject.ErrInjectedCrash) {
		s.restarts++
		if s.restarts > 8 {
			return fmt.Errorf("shadow: no progress after %d restarts", s.restarts)
		}
		err = s.attempt(ctx)
	}
	for o := op(1); o < numOps; o++ {
		// Blocked in Next is waiting, not merging; ingest ran before the loop.
		if o != opShardNext && o != opMobilityEncode && o != opMsgIngestProduce {
			s.mergeBusy += s.rec.totals[o].self
		}
	}
	for _, w := range s.workerRecs {
		for o := op(1); o < numOps; o++ {
			s.workerBusy += w.totals[o].self
		}
		s.rec.merge(w)
	}
	return err
}

// storeBytes returns the encoded size of every checkpoint saved.
func (s *shadow) storeBytes() []int {
	if s.store == nil {
		return nil
	}
	return s.store.bytes
}
