package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// op identifies one kind of call the shadow run makes into a layer. The
// layer is the package that owns the function; several ops may share one.
type op int

const (
	opRoot op = iota // the poll batch (or start-up / flush phase) itself
	opMobilityEncode
	opMobilityDecode
	opMsgIngestProduce
	opMsgPoll
	opMsgProduce
	opMsgCommit
	opShardSubmit
	opShardNext
	opShardBarrier
	opLowlevelArea
	opLowlevelProfiler
	opFLP
	opSynopsesProcess
	opSynopsesMarshal
	opSynopsesFlush
	opVADashboard
	opRdfgenGenerate
	opRdfEncode
	opLinkdiscSetup
	opLinkdiscPoint
	opCERProcess
	opCheckpointCapture
	opCheckpointRestore
	opCheckpointSave
	opSnapSynopses
	opSnapFLP
	opSnapArea
	opSnapProfiler
	opSnapLinkdisc
	opSnapCER
	numOps
)

// opInfo names each op and the layer its self time is charged to. The
// per-operator Snapshot/Restore calls run inside checkpoint capture and
// restore (or the shard barrier) and are charged to the checkpoint layer:
// they are what checkpointing costs, split by who owns the state.
var opInfo = [numOps]struct{ name, layer string }{
	opRoot:              {"batch", ""},
	opMobilityEncode:    {"mobility.encode", "mobility"},
	opMobilityDecode:    {"mobility.decode", "mobility"},
	opMsgIngestProduce:  {"msg.ingest_produce", "msg"},
	opMsgPoll:           {"msg.poll", "msg"},
	opMsgProduce:        {"msg.produce", "msg"},
	opMsgCommit:         {"msg.commit", "msg"},
	opShardSubmit:       {"shard.submit", "shard"},
	opShardNext:         {"shard.next", "shard"},
	opShardBarrier:      {"shard.barrier", "shard"},
	opLowlevelArea:      {"lowlevel.area", "lowlevel"},
	opLowlevelProfiler:  {"lowlevel.profiler", "lowlevel"},
	opFLP:               {"flp.observe_predict", "flp"},
	opSynopsesProcess:   {"synopses.process", "synopses"},
	opSynopsesMarshal:   {"synopses.marshal", "synopses"},
	opSynopsesFlush:     {"synopses.flush", "synopses"},
	opVADashboard:       {"va.dashboard", "va"},
	opRdfgenGenerate:    {"rdfgen.generate", "rdfgen"},
	opRdfEncode:         {"rdf.encode", "rdf"},
	opLinkdiscSetup:     {"linkdisc.setup", "linkdisc"},
	opLinkdiscPoint:     {"linkdisc.point", "linkdisc"},
	opCERProcess:        {"cer.process", "cer"},
	opCheckpointCapture: {"checkpoint.capture", "checkpoint"},
	opCheckpointRestore: {"checkpoint.restore", "checkpoint"},
	opCheckpointSave:    {"checkpoint.save", "checkpoint"},
	opSnapSynopses:      {"checkpoint.snapshot.synopses", "checkpoint"},
	opSnapFLP:           {"checkpoint.snapshot.flp", "checkpoint"},
	opSnapArea:          {"checkpoint.snapshot.area", "checkpoint"},
	opSnapProfiler:      {"checkpoint.snapshot.profiler", "checkpoint"},
	opSnapLinkdisc:      {"checkpoint.snapshot.linkdisc", "checkpoint"},
	opSnapCER:           {"checkpoint.snapshot.cer", "checkpoint"},
}

// layers are the rows of the share table, in the order they are reported.
// "core" is not traced: it is what remains of core's own untraced run after
// every layer's self time is taken out.
var layers = []string{"mobility", "msg", "shard", "lowlevel", "flp", "synopses", "va",
	"rdfgen", "rdf", "linkdisc", "cer", "checkpoint", "core"}

// span is one (batch, op) row of the trace: every call of that op inside the
// batch, summed. Self is Busy minus the time covered by the spans whose
// Parent this span is.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // the batch's root span, or the enclosing op's span
	Batch  int    `json:"batch"`
	Op     string `json:"op"`
	Layer  string `json:"layer,omitempty"`
	Phase  string `json:"phase,omitempty"` // root spans: ingest, start, batch, flush
	Source string `json:"source"`          // coordinator or worker<i>
	Start  int64  `json:"start_ns"`        // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Self   int64  `json:"self_ns"`
	Calls  int64  `json:"calls"`
}

// opAgg accumulates one op inside the current batch.
type opAgg struct {
	first, last time.Duration
	busy, self  time.Duration
	calls       int64
	parent      op
}

// frame is an open span. Instants are durations since the recorder's epoch:
// time.Since reads only the monotonic clock, half the cost of time.Now.
type frame struct {
	op    op
	start time.Duration
	child time.Duration
}

// opTotal is an op's sum over the whole run.
type opTotal struct {
	busy, self time.Duration
	calls      int64
}

// recorder collects spans on one goroutine. With on=false every method
// returns at once, which is the "same loop with spans off" the tracing
// overhead is measured against.
type recorder struct {
	on     bool
	source string
	epoch  time.Time
	nextID int // span ids; each recorder of a run starts from its own base

	stack []frame
	cur   [numOps]opAgg
	batch int
	phase string

	spans  []span
	totals [numOps]opTotal
	// calls keeps the individual durations of the few ops reported as a
	// median per call (checkpoint capture, save, restore).
	calls map[op][]time.Duration
}

// newRecorder returns a recorder whose span ids start above idBase, so the
// recorders of one run (coordinator and workers) never collide.
func newRecorder(on bool, source string, epoch time.Time, idBase int) *recorder {
	return &recorder{on: on, source: source, epoch: epoch, nextID: idBase,
		stack: make([]frame, 0, 8), calls: map[op][]time.Duration{}}
}

// beginBatch opens the root span of a poll batch (or a phase outside the
// poll loop). Every begin/end until endBatch is accounted under it.
func (r *recorder) beginBatch(batch int, phase string) {
	if !r.on {
		return
	}
	r.batch, r.phase = batch, phase
	r.stack = append(r.stack[:0], frame{op: opRoot, start: time.Since(r.epoch)})
}

func (r *recorder) begin(o op) {
	if !r.on {
		return
	}
	r.stack = append(r.stack, frame{op: o, start: time.Since(r.epoch)})
}

func (r *recorder) end() {
	if !r.on {
		return
	}
	r.endAt(time.Since(r.epoch))
}

// next ends the current op and begins o at the same instant, so two adjacent
// calls cost one clock read between them instead of two.
func (r *recorder) next(o op) {
	if !r.on {
		return
	}
	now := time.Since(r.epoch)
	r.endAt(now)
	r.stack = append(r.stack, frame{op: o, start: now})
}

func (r *recorder) endAt(now time.Duration) {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := now - f.start
	a := &r.cur[f.op]
	if a.calls == 0 {
		a.first = f.start
		a.parent = opRoot
		if n := len(r.stack); n > 0 {
			a.parent = r.stack[n-1].op
		}
	}
	a.last = now
	a.busy += d
	a.self += d - f.child
	a.calls++
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += d
	}
	if f.op == opCheckpointCapture || f.op == opCheckpointSave || f.op == opCheckpointRestore {
		r.calls[f.op] = append(r.calls[f.op], d)
	}
}

// endBatch closes the root span and turns the batch's accumulators into
// span rows. Without an open batch it does nothing, so it can be deferred.
func (r *recorder) endBatch() {
	if !r.on || len(r.stack) == 0 {
		return // spans off, or no batch open
	}
	now := time.Since(r.epoch)
	root := r.stack[0]
	r.stack = r.stack[:0]
	d := now - root.start
	r.cur[opRoot] = opAgg{first: root.start, last: now, busy: d, self: d - root.child, calls: 1}
	var ids [numOps]int
	for o := op(0); o < numOps; o++ {
		if r.cur[o].calls > 0 {
			r.nextID++
			ids[o] = r.nextID
		}
	}
	for o := op(0); o < numOps; o++ {
		a := r.cur[o]
		if a.calls == 0 {
			continue
		}
		s := span{
			ID: ids[o], Batch: r.batch, Op: opInfo[o].name, Layer: opInfo[o].layer, Source: r.source,
			Start: int64(a.first), End: int64(a.last),
			Busy: int64(a.busy), Self: int64(a.self), Calls: a.calls,
		}
		if o == opRoot {
			s.Phase = r.phase
		} else {
			s.Parent = ids[a.parent]
		}
		r.spans = append(r.spans, s)
		r.totals[o].busy += a.busy
		r.totals[o].self += a.self
		r.totals[o].calls += a.calls
		r.cur[o] = opAgg{}
	}
}

// merge folds a worker recorder's totals and spans into r.
func (r *recorder) merge(w *recorder) {
	r.spans = append(r.spans, w.spans...)
	for o := range w.totals {
		r.totals[o].busy += w.totals[o].busy
		r.totals[o].self += w.totals[o].self
		r.totals[o].calls += w.totals[o].calls
	}
	for o, ds := range w.calls {
		r.calls[o] = append(r.calls[o], ds...)
	}
}

// layerSelf sums self time per layer.
func (r *recorder) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for o := op(1); o < numOps; o++ {
		out[opInfo[o].layer] += r.totals[o].self
	}
	return out
}

// lastCall returns the duration of an op's most recent call.
func (r *recorder) lastCall(o op) time.Duration {
	if ds := r.calls[o]; len(ds) > 0 {
		return ds[len(ds)-1]
	}
	return 0
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    scale  `json:"scale"`
	Note     string `json:"note"`
	Shards1  []span `json:"shards1"`
	Shards2  []span `json:"shards2"`
}

func writeTrace(outDir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
