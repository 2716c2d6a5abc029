package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
)

// TestWorkerAreaEventsMatchAreaMonitor: a worker's area event count, from
// its movers' region bitsets, equals the number of events AreaMonitor.Update
// reports for the same record, on random tracks through 150 overlapping
// regions — more than one bitset word — and across a Snapshot/Restore of
// both halfway.
func TestWorkerAreaEventsMatchAreaMonitor(t *testing.T) {
	box := geo.Rect{MinLon: 23, MinLat: 37, MaxLon: 24, MaxLat: 38}
	var regions []lowlevel.Region
	index := map[string]int{}
	for i, a := range gen.Areas(3, gen.ProtectedArea, 150, box, 3_000, 20_000) {
		regions = append(regions, lowlevel.Region{ID: a.ID, Geom: a.Geom})
		index[a.ID] = i
	}
	p, err := New(WithConfig(Config{Domain: mobility.Maritime, Regions: regions}), WithObs(nil))
	if err != nil {
		t.Fatal(err)
	}
	w := p.newShardWorker(0, nil)
	mon := lowlevel.NewAreaMonitor(regions, 64)
	rnd := rand.New(rand.NewSource(5))
	pos := make([]geo.Point, 12)
	for i := range pos {
		pos[i] = geo.Pt(box.MinLon+rnd.Float64(), box.MinLat+rnd.Float64())
	}
	var events, highEvents int
	const n = 6000
	for k := 0; k < n; k++ {
		if k == n/2 {
			blob, err := w.snapshotMovers()
			if err != nil {
				t.Fatal(err)
			}
			w = p.newShardWorker(0, nil)
			if err := w.restoreMovers(blob); err != nil {
				t.Fatal(err)
			}
			mblob, _ := mon.Snapshot()
			mon = lowlevel.NewAreaMonitor(regions, 64)
			if err := mon.Restore(mblob); err != nil {
				t.Fatal(err)
			}
		}
		i := rnd.Intn(len(pos))
		// Mostly short steps, sometimes a jump anywhere in the box.
		if rnd.Intn(20) == 0 {
			pos[i] = geo.Pt(box.MinLon+rnd.Float64(), box.MinLat+rnd.Float64())
		} else {
			pos[i] = geo.Destination(pos[i], rnd.Float64()*360, rnd.Float64()*3_000)
		}
		r := mobility.Report{ID: fmt.Sprintf("m%02d", i), Source: "AIS", Time: gen.DefaultStart.Add(time.Duration(k) * time.Second),
			Pos: pos[i], SpeedKn: 10, Heading: 90}
		out := w.Process(workerIn{rec: msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
		want := mon.Update(r)
		if out.areaEvents != int64(len(want)) {
			t.Fatalf("record %d (%s at %v): worker counts %d area events, AreaMonitor.Update reports %v", k, r.ID, r.Pos, out.areaEvents, want)
		}
		events += len(want)
		for _, e := range want {
			if index[e.AreaID] >= 64 {
				highEvents++
			}
		}
	}
	if events < 500 || highEvents == 0 {
		t.Fatalf("%d events, %d in regions past the first bitset word: the tracks exercise too little", events, highEvents)
	}
}

// TestOldLayoutCheckpointIsRefused: a checkpoint in the layout before the
// mover table — shard/<i>/synopses, area and flp beside a top-level
// profiler — is refused on the missing "shard/0/movers" entry, before any
// operator past the shard meta is restored and before the broker is
// touched.
func TestOldLayoutCheckpointIsRefused(t *testing.T) {
	p, reports := maritimePipeline(t, true)
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
	cp, err := cpr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	movers := cp.Operators["shard/0/movers"]
	delete(cp.Operators, "shard/0/movers")
	for _, name := range []string{"shard/0/synopses", "shard/0/area", "shard/0/flp", "profiler"} {
		cp.Operators[name] = movers
	}
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
	fc, err := p.forecaster.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300})
	want := fmt.Sprintf(`checkpoint: generation %d has no state for operator "shard/0/movers"`, cp.Generation)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of an old-layout checkpoint: err = %v, want one containing %q", err, want)
	}
	if got := p.Broker.CommittedOffsets(sourceGroup, TopicRaw); !reflect.DeepEqual(got, wantOffs) {
		t.Errorf("committed offsets moved: %v, want %v", got, wantOffs)
	}
	for _, topic := range outputTopics {
		if got := topicEnds(t, p, topic); !reflect.DeepEqual(got, wantEnds[topic]) {
			t.Errorf("%s truncated: ends %v, want %v", topic, got, wantEnds[topic])
		}
	}
	if got, _ := p.forecaster.Snapshot(); !reflect.DeepEqual(got, fc) {
		t.Error("the refused restore changed the forecaster")
	}
}
