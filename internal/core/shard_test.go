package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/synopses"
)

// TestShardedByteIdenticalOutput pins the shard plane's headline contract:
// the full maritime pipeline (synopses, FLP, link discovery, CER, weather-
// free RDF) run with 1, 2 and 4 shards over the same seeded input must
// publish byte-identical output topics and an identical summary.
func TestShardedByteIdenticalOutput(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, true, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4} {
		p, reports2 := shardedMaritimePipeline(t, true, shards)
		if len(reports2) != len(reports) {
			t.Fatalf("simulation not deterministic: %d vs %d reports", len(reports2), len(reports))
		}
		if err := p.Ingest(context.Background(), reports2); err != nil {
			t.Fatal(err)
		}
		sum, err := p.RunRealTime(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
			t.Errorf("shards=%d: summaries differ:\nserial  %v\nsharded %v", shards, baseSum, sum)
		}
		requireIdenticalTopics(t, base.Broker, p.Broker)

		stats := p.Stats()
		if len(stats.Shards) != shards {
			t.Fatalf("shards=%d: Stats().Shards has %d rows", shards, len(stats.Shards))
		}
		var total int64
		for _, row := range stats.Shards {
			total += row.Records
		}
		if total != int64(len(reports)) {
			t.Errorf("shards=%d: per-shard records sum to %d, want %d", shards, total, len(reports))
		}
		// The merged view must agree with the serial run on the aggregate
		// synopses counters while also carrying the per-shard labels.
		merged := p.MergedSnapshot()
		if got, want := merged.Counter("synopses.critical"), base.MergedSnapshot().Counter("synopses.critical"); got != want {
			t.Errorf("shards=%d: aggregate synopses.critical = %d, want %d", shards, got, want)
		}
		var labelled int64
		for i := 0; i < shards; i++ {
			labelled += merged.Counter(fmt.Sprintf("shard.%d.synopses.critical", i))
		}
		if labelled != merged.Counter("synopses.critical") {
			t.Errorf("shards=%d: per-shard labels sum to %d, aggregate %d", shards, labelled, merged.Counter("synopses.critical"))
		}
	}
}

// TestFinishedPointsMatchSerialSummarize: the shard workers finish every
// critical point — synopsis record and weather literals — beside the merge.
// At 1, 2 and 4 shards every TopicSynopses value, flush-time points included,
// must decode to the point a serial synopses.Summarize yields for the same
// input, mover by mover in order, and the weather-enriched output must not
// depend on the shard count. Under -race (make shardrace) it also checks that
// the workers share the read-only weather field and write only their own
// arenas.
func TestFinishedPointsMatchSerialSummarize(t *testing.T) {
	field := gen.NewWeatherField(7, gen.DefaultStart)
	weather := withConfigEdit(func(c *Config) { c.Weather = field })
	var base *Pipeline
	for _, shards := range []int{1, 2, 4} {
		p, reports := shardedMaritimePipeline(t, true, shards, weather)
		if err := p.Ingest(context.Background(), reports); err != nil {
			t.Fatal(err)
		}
		sum, err := p.RunRealTime(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cps, _ := synopses.Summarize(p.cfg.Synopses, reports)
		want := map[string][]synopses.CriticalPoint{}
		for _, cp := range cps {
			want[cp.ID] = append(want[cp.ID], cp)
		}
		// Partition logs in offset order: one mover's records are in its
		// partition in the order the merge published them.
		n := 0
		for _, recs := range topicContents(t, p.Broker, TopicSynopses) {
			for _, rec := range recs {
				got, err := synopses.UnmarshalCriticalPoint(rec.Value)
				if err != nil {
					t.Fatalf("shards=%d: synopsis record of %s: %v", shards, rec.Key, err)
				}
				q := want[rec.Key]
				if len(q) == 0 || got != q[0] {
					t.Fatalf("shards=%d: synopsis record %d of %s decodes to %+v, want %+v",
						shards, rec.Offset, rec.Key, got, q[:min(len(q), 1)])
				}
				want[rec.Key] = q[1:]
				n++
			}
		}
		if n != len(cps) || sum.CriticalPoints != int64(len(cps)) {
			t.Fatalf("shards=%d: %d synopsis records, %d critical points in the summary, Summarize yields %d",
				shards, n, sum.CriticalPoints, len(cps))
		}
		if cps[len(cps)-1].Type != synopses.TrajectoryEnd {
			t.Fatalf("shards=%d: Summarize's output does not end with the flush-time points", shards)
		}
		if base == nil {
			base = p
			continue
		}
		requireIdenticalTopics(t, base.Broker, p.Broker)
	}
}

// TestShardedRecoveryByteIdenticalOutput extends the fault-tolerance
// guarantee to the sharded loop: a 4-shard pipeline killed repeatedly
// mid-stream and recovered from barrier-coordinated checkpoints must
// reproduce, byte for byte, the output of an uninterrupted serial run.
func TestShardedRecoveryByteIdenticalOutput(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, true, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := shardedMaritimePipeline(t, true, 4)
	if len(reports2) != len(reports) {
		t.Fatalf("simulation not deterministic: %d vs %d reports", len(reports2), len(reports))
	}
	if err := faulty.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed:     42,
		KillMin:  900,
		KillMax:  1500,
		DropProb: 0.01,
	})
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}

	sum, restarts := runUntilDone(t, faulty, rc, 100)
	if inj.Kills() < 2 {
		t.Fatalf("only %d crashes injected; the test proved nothing", inj.Kills())
	}
	t.Logf("4-shard pipeline recovered from %d crashes (%d restarts, %d checkpoints)",
		inj.Kills(), restarts, cpr.Captures())

	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nserial  %v\nsharded %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)
}

// TestShardedCheckpointShardCountPinned: restoring a checkpoint captured
// at one shard count into a pipeline configured with another must fail
// loudly instead of misrouting per-trajectory state.
func TestShardedCheckpointShardCountPinned(t *testing.T) {
	p2, reports := shardedMaritimePipeline(t, false, 2)
	if err := p2.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	cpr, err := checkpoint.NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Crash once after at least one checkpoint so the store holds state.
	inj := faultinject.New(faultinject.Config{Seed: 9, KillMin: 900, KillMax: 1200})
	_, err = p2.RunWithRecovery(context.Background(), &RecoveryConfig{
		Checkpointer: cpr, EveryRecords: 300, Injector: inj,
	})
	if err == nil {
		t.Fatal("run finished before the injected crash; raise KillMin")
	}
	if cpr.Captures() == 0 {
		t.Fatal("no checkpoint captured before the crash")
	}

	p4, reports4 := shardedMaritimePipeline(t, false, 4)
	if err := p4.Ingest(context.Background(), reports4); err != nil {
		t.Fatal(err)
	}
	cpr4, err := checkpoint.NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p4.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr4, EveryRecords: 300})
	if err == nil {
		t.Fatal("restore with mismatched shard count must fail")
	}
}

// TestShardWorkerProcessAllocs: a shard worker processing unsampled records
// allocates nothing at steady state. FLP predicts into the mover's reused
// buffer and the Dashboard slot copies it into its own; a critical point is
// finished into slices carved from the worker's two arenas, so 200 records
// that yield critical points cost at most one fresh slab of each. The stage
// spans are no-ops then, and must not allocate a variadic attribute slice per
// call either. It runs one mover steaming due east at constant speed, which
// after its first report yields no critical point, and one zigzagging 80°
// at every report, which yields one at every other report or more often.
func TestShardWorkerProcessAllocs(t *testing.T) {
	p, err := New(WithObs(obs.NewRegistry(nil)))
	if err != nil {
		t.Fatal(err)
	}
	w := p.newShardWorker(0, obs.NewRegistry(nil))
	const warm, runs = 20, 200
	track := func(id string, heading func(i int) float64) []msg.Record {
		recs := make([]msg.Record, warm+runs)
		pos := geo.Pt(23.5, 37.9)
		for i := range recs {
			r := mobility.Report{ID: id, Time: gen.DefaultStart.Add(time.Duration(i) * 10 * time.Second),
				Pos: pos, SpeedKn: 10, Heading: heading(i), Source: "ais"}
			recs[i] = msg.Record{Key: r.ID, Value: r.AppendBinary(nil), Time: r.Time}
			pos = geo.Destination(pos, r.Heading, 10*mobility.KnotsToMS*10)
		}
		return recs
	}
	for _, tc := range []struct {
		id        string
		heading   func(i int) float64
		critical  bool
		maxAllocs uint64 // over the runs records
	}{
		{"v-1", func(int) float64 { return 90 }, false, 0},
		{"v-2", func(i int) float64 { return 50 + 80*float64(i%2) }, true, 2},
	} {
		recs := track(tc.id, tc.heading)
		for i := range recs[:warm] {
			w.Process(workerIn{rec: &recs[i]})
		}
		outs := make([]workerOut, runs)
		allocs := mallocsDuring(func() {
			for i := range outs {
				outs[i] = w.Process(workerIn{rec: &recs[warm+i]})
			}
		})
		var cps, withCP int
		for i, out := range outs {
			if !out.ok || !out.valid || !out.predicted {
				t.Fatalf("%s record %d: ok=%v valid=%v predicted=%v", tc.id, warm+i, out.ok, out.valid, out.predicted)
			}
			cps += len(out.cps)
			if len(out.cps) > 0 {
				withCP++
			}
		}
		if tc.critical && 2*withCP < runs {
			t.Fatalf("%s: %d of %d records yielded a critical point, want at least half", tc.id, withCP, runs)
		}
		if !tc.critical && cps != 0 {
			t.Fatalf("%s yielded %d critical points, want none", tc.id, cps)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s: Process made %d allocations over %d records (%d critical points), want at most %d", tc.id, allocs, runs, cps, tc.maxAllocs)
		}
		if got := p.Dashboard.Snapshot(gen.DefaultStart).Predictions[tc.id]; !reflect.DeepEqual(got, w.movers[tc.id].future) {
			t.Errorf("%s: dashboard prediction %v, want the worker's last %v", tc.id, got, w.movers[tc.id].future)
		}
	}
}

// mallocsDuring returns the heap allocations f makes, counted as
// testing.AllocsPerRun counts them (on one P), but in total rather than
// rounded down to whole allocations per call.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
