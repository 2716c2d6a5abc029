package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/synopses"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

const snapSample = 10 * time.Second

// busyWorker returns a shard worker of the maritime test pipeline that has
// processed the first n of its reports, so its mover table holds tracks,
// histories, area memberships, profiles and predictors.
func busyWorker(t testing.TB, n int) *shardWorker {
	t.Helper()
	w, reports := freshWorker(t)
	for _, r := range reports[:n] {
		w.Process(workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
	}
	return w
}

// freshWorker returns an empty shard worker of the maritime test pipeline,
// and the pipeline's input.
func freshWorker(t testing.TB) (*shardWorker, []mobility.Report) {
	t.Helper()
	p, reports := shardedMaritimePipeline(t, false, 1)
	return p.newShardWorker(0, nil), reports
}

// TestMoversSnapshotLayout pins the mover table's bytes to the documented
// layout, written here from the operators' own record encoders, and checks
// that a restored table snapshots to the same bytes and goes on producing
// the same output.
func TestMoversSnapshotLayout(t *testing.T) {
	w := busyWorker(t, 6000)
	var tracked, inside int
	want := wire.AppendHeader(nil, wire.TagMovers)
	stats := w.sg.Stats()
	want = wire.AppendVarint(want, stats.In)
	want = wire.AppendVarint(want, stats.Dropped)
	want = wire.AppendVarint(want, stats.Critical)
	want = wire.AppendUvarint(want, uint64(len(w.movers)))
	ids := make([]string, 0, len(w.movers))
	for id := range w.movers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := w.movers[id]
		want = wire.AppendString(want, id)
		want = wire.AppendString(want, m.source)
		want = m.track.AppendTrack(want)
		want = wire.AppendBool(want, m.pred != nil)
		if m.pred == nil {
			continue
		}
		tracked++
		if m.area.Len() > 0 {
			inside++
		}
		want = m.area.AppendRegions(want)
		want = m.prof.AppendProfile(want)
		want = m.pred.AppendState(want)
	}
	if tracked < 10 || inside == 0 {
		t.Fatalf("%d tracked movers, %d inside a region: the fixture exercises too little", tracked, inside)
	}
	blob := w.snapshotMovers()
	if !bytes.Equal(blob, want) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", blob, want)
	}
	restored, reports := freshWorker(t)
	if err := restored.restoreMovers(blob); err != nil {
		t.Fatal(err)
	}
	if again := restored.snapshotMovers(); !bytes.Equal(blob, again) {
		t.Fatal("restored movers snapshot differently")
	}
	for _, r := range reports[6000:7000] {
		in := workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}}
		a, b := w.Process(in), restored.Process(in)
		if a.areaEvents != b.areaEvents || len(a.cps) != len(b.cps) || a.predicted != b.predicted ||
			!reflect.DeepEqual(w.movers[r.ID].future, restored.movers[r.ID].future) {
			t.Fatalf("restored worker diverged at %s %v", r.ID, r.Time)
		}
	}
}

// moverBlob encodes a mover table blob from raw mover records. Test-only.
func moverBlob(stats synopses.Stats, movers ...[]byte) []byte {
	buf := wire.AppendHeader(nil, wire.TagMovers)
	buf = wire.AppendVarint(buf, stats.In)
	buf = wire.AppendVarint(buf, stats.Dropped)
	buf = wire.AppendVarint(buf, stats.Critical)
	buf = wire.AppendUvarint(buf, uint64(len(movers)))
	for _, m := range movers {
		buf = append(buf, m...)
	}
	return buf
}

// moverRecord encodes one tracked mover from its profile and RMF* state
// records.
func moverRecord(id string, prof, pred []byte) []byte {
	var track synopses.Track
	buf := wire.AppendString(nil, id)
	buf = wire.AppendString(buf, "AIS")
	buf = track.AppendTrack(buf)
	buf = wire.AppendBool(buf, true)
	buf = lowlevel.Regions(nil).AppendRegions(buf)
	return append(append(buf, prof...), pred...)
}

// rmfRecord encodes an RMF* state record of n points eastwards from
// (0°, 45°); the point at index bad, if any, has a NaN x.
func rmfRecord(n, bad int) []byte {
	buf := wire.AppendBool(nil, true)
	buf = wire.AppendFloat64(buf, 0)
	buf = wire.AppendFloat64(buf, 45)
	buf = wire.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		x := float64(i) * 100
		if i == bad {
			x = math.NaN()
		}
		buf = wire.AppendFloat64(buf, x)
		buf = wire.AppendFloat64(buf, 0)
		buf = wire.AppendFloat64(buf, 90)
	}
	return wire.AppendFloat64(buf, 0)
}

// profRecord encodes a profile record whose speed accumulator has seen
// seven values, with markers q and inner positions pos, and whose
// acceleration accumulator is empty.
func profRecord(q [5]float64, pos [3]uint64) []byte {
	buf := wire.AppendUvarint(nil, 7)
	for _, v := range append([]float64{q[0], q[4], 30}, q[:]...) {
		buf = wire.AppendFloat64(buf, v)
	}
	for _, p := range pos {
		buf = wire.AppendUvarint(buf, p)
	}
	buf = wire.AppendUvarint(buf, 0)
	buf = wire.AppendBool(buf, false)
	buf = wire.AppendTime(buf, time.Time{})
	return wire.AppendFloat64(buf, 0)
}

// TestMoversRestoreIsAllOrNothing asserts "error ⇒ unchanged": a blob whose
// later mover is corrupt must not leave the earlier ones applied, nor the
// worker's table or counters changed.
func TestMoversRestoreIsAllOrNothing(t *testing.T) {
	prof := profRecord([5]float64{1, 3, 4, 6, 9}, [3]uint64{2, 4, 5})
	good := moverRecord("a", prof, rmfRecord(28, -1))
	rec := func(id string) []byte { return moverRecord(id, prof, rmfRecord(4, -1)) }
	badRegion := rec("c")
	// The regions record follows the track and the tracked flag: point its
	// count at one region index past the configured regions.
	var track synopses.Track
	at := wire.StringLen("c") + wire.StringLen("AIS") + track.TrackLen() + 1
	badRegion = append(append(append([]byte(nil), badRegion[:at]...), 1, 200, 1), badRegion[at+1:]...)
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"window past maxLen":        {moverBlob(synopses.Stats{}, good, moverRecord("b", prof, rmfRecord(29, -1))), "restore predictor b: flp: restore rmf*: window of 29 points exceeds capacity 28"},
		"non-finite coordinate":     {moverBlob(synopses.Stats{}, moverRecord("a", prof, rmfRecord(6, 5)), rec("b")), "restore predictor a: flp: restore rmf*: non-finite plane coordinates at window index 5"},
		"markers out of order":      {moverBlob(synopses.Stats{}, good, moverRecord("b", profRecord([5]float64{1, 4, 3, 6, 9}, [3]uint64{2, 4, 5}), rmfRecord(4, -1))), "speed statistics of b: marker heights out of order"},
		"marker positions":          {moverBlob(synopses.Stats{}, moverRecord("a", profRecord([5]float64{1, 3, 4, 6, 9}, [3]uint64{2, 5, 4}), rmfRecord(4, -1)), rec("b")), "speed statistics of a: marker positions out of order"},
		"region out of range":       {moverBlob(synopses.Stats{}, good, badRegion), "out of range"},
		"movers out of order":       {moverBlob(synopses.Stats{}, rec("b"), good), "ascending order"},
		"duplicate mover":           {moverBlob(synopses.Stats{}, good, good), "ascending order"},
		"negative counters":         {moverBlob(synopses.Stats{In: -1}, good), "malformed"},
		"predictor map from before": {wire.AppendUvarint([]byte{0xC8, wire.Version}, 0), "not a binary snapshot"},
		"mover table from before":   {append([]byte{0xCA}, moverBlob(synopses.Stats{}, good)[1:]...), "not a binary snapshot"},
		"truncated":                 {moverBlob(synopses.Stats{}, good)[:20], "malformed"},
		"hostile count":             {wire.AppendUvarint(wire.AppendHeader(nil, wire.TagMovers), math.MaxUint64), "malformed"},
	}
	if w := busyWorker(t, 10); w.restoreMovers(moverBlob(synopses.Stats{}, good, rec("b"))) != nil {
		t.Fatal("the valid records the cases corrupt do not restore")
	}
	for name, c := range cases {
		w := busyWorker(t, 1500)
		before := w.snapshotMovers()
		movers, stats := len(w.movers), w.sg.Stats()
		err := w.restoreMovers(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		if len(w.movers) != movers || w.sg.Stats() != stats {
			t.Errorf("%s: a rejected restore left %d movers and counters %+v, want %d and %+v", name, len(w.movers), w.sg.Stats(), movers, stats)
		}
		if after := w.snapshotMovers(); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the movers", name)
		}
	}
}

// FuzzMoversRestore holds the mover table's restore to the record-codec
// contract: decoding any input never panics and allocates within bounds,
// and a decoded table re-encodes canonically. The seed corpus holds a
// mover table from a real checkpoint of the transit fleet.
func FuzzMoversRestore(f *testing.F) {
	p, reports := shardedMaritimePipeline(f, false, 1)
	base := p.newShardWorker(0, nil)
	for _, r := range reports[:1500] {
		base.Process(workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
	}
	full := base.snapshotMovers()
	empty := p.newShardWorker(0, nil).snapshotMovers()
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Add(wire.AppendUvarint([]byte{0xC8, wire.Version}, 0)) // the predictor map from before
	f.Add(append([]byte{0xCA}, full[1:]...))                 // the mover table from before
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckCodec(t, data, func(b []byte) ([]byte, error) {
			// A worker configured like base; the area monitor's grid is
			// configuration, shared rather than rebuilt inside the
			// measured decode.
			w := &shardWorker{movers: map[string]*mover{}, sg: synopses.NewGenerator(p.cfg.Synopses),
				areaMon: base.areaMon, sample: base.sample}
			if err := w.restoreMovers(b); err != nil {
				return nil, err
			}
			return w.snapshotMovers(), nil
		})
	})
}

func runStateOf(seq int, sum Summary) *merge {
	return &merge{seq: seq, sum: sum}
}

func TestRunStateSnapshotRoundTrip(t *testing.T) {
	want := Summary{RawIn: 1200, CriticalPoints: 80, Compression: 0.9333, AreaEvents: 3, Links: 4,
		Triples: 900, Predictions: 1100, Detections: 2, Forecasts: 7}
	blob, err := runStateOf(81, want).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := runStateOf(0, Summary{})
	if err := got.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got.seq != 81 || got.sum != want {
		t.Fatalf("restored seq %d sum %+v, want 81 %+v", got.seq, got.sum, want)
	}
	negative, _ := runStateOf(-1, want).Snapshot()
	for name, blob := range map[string][]byte{
		"negative sequence": negative,
		"JSON from before":  []byte(`{"seq":81,"sum":{}}`),
		"truncated":         blob[:len(blob)-1],
	} {
		st := runStateOf(5, want)
		if err := st.Restore(blob); err == nil {
			t.Errorf("%s: restored", name)
		}
		if st.seq != 5 || st.sum != want {
			t.Errorf("%s: a rejected restore changed the run state", name)
		}
	}
}

func FuzzRunStateRestore(f *testing.F) {
	full, err := runStateOf(81, Summary{RawIn: 1200, CriticalPoints: 80, Compression: 0.9}).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:5])
	f.Add([]byte(`{"seq":81,"sum":{"RawIn":1200}}`))
	fresh := func() wiretest.Operator { return runStateOf(0, Summary{}) }
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, runStateOf(7, Summary{RawIn: 9, Compression: 0.5}), fresh, data)
	})
}

// TestNonFiniteReportIsDroppedNotFatal: one report with an infinite
// vertical rate used to panic the run in the synopsis encoder (JSON cannot
// carry +Inf) and fail every JSON snapshot holding it. It is now an invalid
// record: dropped and counted by synopses, and the output is exactly that of
// the same input without it — at one and two shards, with and without
// checkpointing.
func TestNonFiniteReportIsDroppedNotFatal(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, checkpointing := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/checkpoint=%v", shards, checkpointing), func(t *testing.T) {
				run := func(drop bool) *Pipeline {
					p, reports := shardedMaritimePipeline(t, true, shards)
					if drop {
						reports = append(reports[:10:10], reports[11:]...)
					} else {
						reports[10].VRateFS = math.Inf(1)
					}
					if err := p.Ingest(context.Background(), reports); err != nil {
						t.Fatal(err)
					}
					var rc *RecoveryConfig
					if checkpointing {
						cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
						if err != nil {
							t.Fatal(err)
						}
						rc = &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300}
					}
					if _, err := p.RunWithRecovery(context.Background(), rc); err != nil {
						t.Fatal(err)
					}
					return p
				}
				clean, bad := run(true), run(false)
				requireIdenticalTopics(t, clean.Broker, bad.Broker)
				cs, bs := clean.Stats(), bad.Stats()
				if bs.Synopses.Dropped != cs.Synopses.Dropped+1 || bs.Synopses.In != cs.Synopses.In+1 {
					t.Errorf("synopses in/dropped %d/%d, want %d/%d", bs.Synopses.In, bs.Synopses.Dropped, cs.Synopses.In+1, cs.Synopses.Dropped+1)
				}
				if bs.Summary.RawIn != cs.Summary.RawIn+1 || bs.Summary.CriticalPoints != cs.Summary.CriticalPoints {
					t.Errorf("summary %v, want the clean run's %v plus one raw record", bs.Summary, cs.Summary)
				}
			})
		}
	}
}

// TestJSONCheckpointFailsBeforeTheBroker: a checkpoint written before the
// binary snapshot codec holds JSON operator blobs. Restoring it fails on the
// first operator, named in the error, and leaves the broker's offsets and
// output topics exactly as they were.
func TestJSONCheckpointFailsBeforeTheBroker(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	cpr, err := checkpoint.NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 9, KillMin: 900, KillMax: 1200})
	if _, err := p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("first run: %v, want an injected crash", err)
	}
	// Rewrite the newest generation the way the JSON codec wrote it.
	cp, err := cpr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	for name := range cp.Operators {
		cp.Operators[name] = []byte(`{}`)
	}
	cp.Operators["shard/meta"] = []byte(`{"shards":1,"epoch":` + fmt.Sprint(cp.Generation) + `}`)
	data, err := checkpoint.Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(cp.Generation, data); err != nil {
		t.Fatal(err)
	}

	wantOffs := p.Broker.CommittedOffsets(sourceGroup, TopicRaw)
	wantEnds := map[string][]int64{}
	for _, topic := range outputTopics {
		wantEnds[topic] = topicEnds(t, p, topic)
	}
	_, err = p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300})
	const want = `checkpoint: restore shard/meta: checkpoint: restore shard meta: wire: not a binary snapshot of this operator: first byte 0x7b '{'`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of a JSON checkpoint: err = %v, want one containing %q", err, want)
	}
	if got := p.Broker.CommittedOffsets(sourceGroup, TopicRaw); !reflect.DeepEqual(got, wantOffs) {
		t.Errorf("committed offsets moved: %v, want %v", got, wantOffs)
	}
	for _, topic := range outputTopics {
		if got := topicEnds(t, p, topic); !reflect.DeepEqual(got, wantEnds[topic]) {
			t.Errorf("%s truncated: ends %v, want %v", topic, got, wantEnds[topic])
		}
	}
}

func topicEnds(t *testing.T, p *Pipeline, topic string) []int64 {
	t.Helper()
	n, err := p.Broker.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, n)
	for i := range ends {
		if ends[i], err = p.Broker.EndOffset(topic, i); err != nil {
			t.Fatal(err)
		}
	}
	return ends
}
