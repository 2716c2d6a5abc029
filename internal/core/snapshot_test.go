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
	"datacron/internal/flp"
	"datacron/internal/gen"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

const snapSample = 10 * time.Second

// busyPredictors returns RMF* predictors that have observed a few movers'
// tracks, wrapped in the snapshotter the shard worker checkpoints them with.
func busyPredictors() predictorsSnapshotter {
	preds := map[string]*flp.RMFStar{}
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 4, Region: region, Counts: map[gen.VesselClass]int{gen.Cargo: 3}})
	for _, r := range sim.Run(20 * time.Minute) {
		if preds[r.ID] == nil {
			preds[r.ID] = flp.NewRMFStar(snapSample)
		}
		preds[r.ID].Observe(r)
	}
	return predictorsSnapshotter{preds: preds, sample: snapSample}
}

func emptyPredictors() wiretest.Operator {
	return predictorsSnapshotter{preds: map[string]*flp.RMFStar{}, sample: snapSample}
}

// predWire is one entry of the predictor map's snapshot layout, and
// encodePredictors writes entries exactly as Snapshot does. Test-only.
type predWire struct {
	id   string
	blob []byte
}

func encodePredictors(entries ...predWire) []byte {
	buf := wire.AppendHeader(nil, wire.TagPredictors)
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = wire.AppendString(buf, e.id)
		buf = wire.AppendBytes(buf, e.blob)
	}
	return buf
}

func TestPredictorsSnapshotLayout(t *testing.T) {
	ps := busyPredictors()
	if len(ps.preds) != 3 {
		t.Fatalf("%d predictors, want 3", len(ps.preds))
	}
	var entries []predWire
	for _, id := range sortedKeys(ps.preds) {
		blob, err := ps.preds[id].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, predWire{id, blob})
	}
	blob, err := ps.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodePredictors(entries...); !bytes.Equal(blob, want) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", blob, want)
	}
	restored := emptyPredictors()
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.Snapshot(); !bytes.Equal(blob, again) {
		t.Fatal("restored predictors snapshot differently")
	}
}

func sortedKeys(m map[string]*flp.RMFStar) []string {
	var ids []string
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestPredictorsRestoreIsAllOrNothing asserts "error ⇒ unchanged": a blob
// whose later predictor is corrupt must not leave the earlier ones applied,
// nor the worker's map emptied.
func TestPredictorsRestoreIsAllOrNothing(t *testing.T) {
	good, err := flp.NewRMFStar(snapSample).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	inconsistent := []byte(`{"pts":[[1,2]]}`)
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"later predictor corrupt": {encodePredictors(predWire{"a", good}, predWire{"b", inconsistent}), "restore predictor b"},
		"first predictor corrupt": {encodePredictors(predWire{"a", []byte("{")}, predWire{"b", good}), "restore predictor a"},
		"movers out of order":     {encodePredictors(predWire{"b", good}, predWire{"a", good}), "ascending order"},
		"duplicate mover":         {encodePredictors(predWire{"a", good}, predWire{"a", good}), "ascending order"},
		"JSON map from before":    {[]byte(`{"a":{}}`), "not a binary snapshot"},
		"truncated":               {encodePredictors(predWire{"a", good})[:6], "malformed"},
		"hostile count":           {wire.AppendUvarint(wire.AppendHeader(nil, wire.TagPredictors), math.MaxUint64), "malformed"},
	}
	for name, c := range cases {
		ps := busyPredictors()
		before, _ := ps.Snapshot()
		err := ps.Restore(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		if len(ps.preds) != 3 {
			t.Errorf("%s: a rejected restore left %d predictors, want the 3 it had", name, len(ps.preds))
		}
		if after, _ := ps.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the predictors", name)
		}
	}
}

func FuzzPredictorsRestore(f *testing.F) {
	full, err := busyPredictors().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := emptyPredictors().Snapshot()
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"a":{"pts":[[1,2]],"heads":[0],"speeds":[1],"vrates":[0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Rebuilt from its snapshot: simulating the fleet per input is slow.
		busy := emptyPredictors()
		if err := busy.Restore(full); err != nil {
			t.Fatal(err)
		}
		wiretest.CheckRestore(t, busy, emptyPredictors, data)
	})
}

func runStateOf(seq int, sum Summary) runStateSnapshotter {
	return runStateSnapshotter{seq: &seq, sum: &sum}
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
	if *got.seq != 81 || *got.sum != want {
		t.Fatalf("restored seq %d sum %+v, want 81 %+v", *got.seq, *got.sum, want)
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
		if *st.seq != 5 || *st.sum != want {
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
