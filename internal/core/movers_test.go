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
	"datacron/internal/synopses"
	"datacron/internal/wire"
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
			blob := w.snapshotMovers()
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
		out := w.Process(workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
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

// TestOldLayoutCheckpointIsRefused: checkpoints in the layouts before this
// one are refused before any operator past the shard meta is restored and
// before the broker is touched — the layout before the mover table
// (shard/<i>/synopses, area and flp beside a top-level profiler) on the
// missing "shard/0/movers" entry, and a mover table with value-log profiles
// and JSON RMF* windows (tag 0xCA) on its tag.
func TestOldLayoutCheckpointIsRefused(t *testing.T) {
	layouts := map[string]struct {
		rewrite func(cp *checkpoint.Checkpoint)
		want    func(gen uint64) string
	}{
		"operators before the mover table": {
			func(cp *checkpoint.Checkpoint) {
				movers := cp.Operators["shard/0/movers"]
				delete(cp.Operators, "shard/0/movers")
				for _, name := range []string{"shard/0/synopses", "shard/0/area", "shard/0/flp", "profiler"} {
					cp.Operators[name] = movers
				}
			},
			func(gen uint64) string {
				return fmt.Sprintf(`checkpoint: generation %d has no state for operator "shard/0/movers"`, gen)
			},
		},
		"mover table 0xCA": {
			func(cp *checkpoint.Checkpoint) {
				cp.Operators["shard/0/movers"] = append([]byte{0xCA}, cp.Operators["shard/0/movers"][1:]...)
			},
			func(uint64) string {
				return "core: restore movers: wire: not a binary snapshot of this operator: first byte 0xca"
			},
		},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
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
			layout.rewrite(cp)
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
			if want := layout.want(cp.Generation); err == nil || !strings.Contains(err.Error(), want) {
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
		})
	}
}

// TestMoverSizeDoesNotGrowWithTheRun: a mover's record costs its ID and
// source plus a constant fixed by configuration, and two captures of one
// fleet at N and 2N records differ only where a mover is — its track's
// history and its regions — and by the varints of the counters, not by how
// long it has run.
func TestMoverSizeDoesNotGrowWithTheRun(t *testing.T) {
	p, reports := shardedMaritimePipeline(t, false, 1)
	w := p.newShardWorker(0, nil)
	// Upper bounds of the records, byte for byte as their encoders write
	// them; a time is at most a 10-byte varint and a 5-byte nanosecond part.
	const maxTime = 10 + 5
	history := p.cfg.Synopses.HistoryLen
	regions := len(p.cfg.Regions)
	maxTrack := 1 + 3 + mobility.BinaryMinSize + wire.UvarintLen(uint64(history)) +
		history*(maxTime+2*8) + 2*maxTime + 8 + 1 + 8
	maxRegions := wire.UvarintLen(uint64(regions)) + regions*wire.UvarintLen(uint64(regions-1))
	const maxProfile = 2*(10+3*8+5*8+3*10) + 1 + maxTime + 8 // two P² accumulators
	const maxRMFStar = 1 + 2*8 + 1 + 28*3*8 + 8              // a full window
	maxFixed := maxTrack + 1 + maxRegions + maxProfile + maxRMFStar

	// rest is what a capture holds besides the tracks and regions.
	rest := func() (int, synopses.Stats) {
		n := len(w.snapshotMovers())
		for _, m := range w.movers {
			// The track's last report repeats the ID and source.
			names := wire.StringLen(m.id) + wire.StringLen(m.source) + len(m.id) + len(m.source)
			if size := moverLen(m); size > names+maxFixed {
				t.Fatalf("mover %s: record of %d bytes, more than %d for its names and %d fixed", m.id, size, names, maxFixed)
			}
			n -= m.track.TrackLen() + m.area.RegionsLen()
		}
		return n, w.sg.Stats()
	}
	half := len(reports) / 2
	var restN, restN2 int
	var statsN, statsN2 synopses.Stats
	for k, r := range reports {
		w.Process(workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
		switch k + 1 {
		case half / 2:
			restN, statsN = rest()
		case half:
			restN2, statsN2 = rest()
		}
	}
	// Doubling a count lengthens its varint by one byte at most: per mover,
	// two accumulator counts and six marker positions. The profile's last
	// report time varies by up to four bytes in its nanosecond part.
	allow := wire.VarintLen(statsN2.In) - wire.VarintLen(statsN.In) +
		wire.VarintLen(statsN2.Dropped) - wire.VarintLen(statsN.Dropped) +
		wire.VarintLen(statsN2.Critical) - wire.VarintLen(statsN.Critical) +
		len(w.movers)*(2+6+4)
	if d := restN2 - restN; d < -allow || d > allow {
		t.Fatalf("at %d and %d records the table less tracks and regions is %d and %d bytes: %+d, want within ±%d", half/2, half, restN, restN2, d, allow)
	}
	if len(w.movers) < 10 || statsN.In < 1000 {
		t.Fatalf("%d movers, %d records at the first capture: the fixture exercises too little", len(w.movers), statsN.In)
	}
}
