package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/flow"
	"datacron/internal/msg"
	"datacron/internal/obs"
)

// cutRun is one maritime pipeline driven through RunWithRecovery to the end,
// restarted after every injected crash, with every checkpoint generation kept.
type cutRun struct {
	p     *Pipeline
	store *checkpoint.MemStore
	sum   Summary
	inj   *faultinject.Injector
}

// runCuts ingests the seeded maritime input and runs it at the given shard
// count and checkpoint cadence, with the injector faults fc (nil for none).
// noPrefetch selects the unpipelined reference loop.
func runCuts(t *testing.T, shards int, noPrefetch bool, every int, fc *faultinject.Config) cutRun {
	t.Helper()
	p, reports := shardedMaritimePipeline(t, true, shards)
	p.noPrefetch = noPrefetch
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	cpr, err := checkpoint.NewCheckpointer(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: every}
	if fc != nil {
		rc.Injector = faultinject.New(*fc)
	}
	sum, _ := runUntilDone(t, p, rc, 100)
	return cutRun{p: p, store: store, sum: sum, inj: rc.Injector}
}

// storedCheckpoints decodes every generation in the store, oldest first.
func storedCheckpoints(t *testing.T, store *checkpoint.MemStore) []*checkpoint.Checkpoint {
	t.Helper()
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*checkpoint.Checkpoint, 0, len(gens))
	for _, g := range gens {
		data, err := store.Load(g)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cp)
	}
	return out
}

// cuts lists every stored generation with its source offsets and output end
// offsets.
func (r cutRun) cuts(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, cp := range storedCheckpoints(t, r.store) {
		out = append(out, fmt.Sprint(cp.Generation, cp.Sources, cp.Outputs))
	}
	return out
}

// requireSameRun fails unless the pipelined run cut the same checkpoints,
// published the same bytes and reached the same summary as the reference.
func requireSameRun(t *testing.T, ref, got cutRun) {
	t.Helper()
	refCuts, gotCuts := ref.cuts(t), got.cuts(t)
	if len(refCuts) == 0 {
		t.Fatal("the reference run captured no checkpoint")
	}
	if fmt.Sprint(gotCuts) != fmt.Sprint(refCuts) {
		t.Errorf("checkpoint cuts differ:\nreference %v\npipelined %v", refCuts, gotCuts)
	}
	if fmt.Sprint(got.sum) != fmt.Sprint(ref.sum) {
		t.Errorf("summaries differ:\nreference %v\npipelined %v", ref.sum, got.sum)
	}
	requireIdenticalTopics(t, ref.p.Broker, got.p.Broker)
}

// TestPrefetchKeepsCheckpointCuts: fetching the next poll batch ahead must
// not move a checkpoint. At cadences that straddle batch boundaries, every
// generation's source offsets and output end offsets equal those of the
// loop that applies each batch before polling the next.
func TestPrefetchKeepsCheckpointCuts(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, every := range []int{300, 960, 1000} {
			t.Run(fmt.Sprintf("shards=%d/every=%d", shards, every), func(t *testing.T) {
				ref := runCuts(t, shards, true, every, nil)
				got := runCuts(t, shards, false, every, nil)
				requireSameRun(t, ref, got)
			})
		}
	}
}

// TestPrefetchKeepsFaultSchedule drives injected faults into batches that
// were fetched ahead: a crash at a fixed ordinal inside such a batch, and
// jittered crashes with dropped batches, some of them fetched ahead. The
// injector's one random stream must be consumed in the unpipelined order, so
// the crashes, drops, checkpoint cuts and output bytes all equal the
// reference's.
func TestPrefetchKeepsFaultSchedule(t *testing.T) {
	cases := []struct {
		name string
		fc   faultinject.Config
	}{
		// With a cut after record 1024, batch 5 is polled without look-ahead
		// and batch 6 (records 1281–1536) is fetched while 5 is applied.
		{"crash in a fetched-ahead batch", faultinject.Config{Seed: 5, KillMin: 1400, KillMax: 1400}},
		{"jittered crashes and drops", faultinject.Config{Seed: 42, KillMin: 1300, KillMax: 2000, DropProb: 0.2}},
	}
	for _, shards := range []int{1, 2} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				ref := runCuts(t, shards, true, 1000, &c.fc)
				got := runCuts(t, shards, false, 1000, &c.fc)
				if got.inj.Kills() == 0 {
					t.Fatal("no crash injected; the test proved nothing")
				}
				if c.fc.DropProb > 0 && got.inj.Drops() == 0 {
					t.Fatal("no batch dropped; the test proved nothing")
				}
				if got.inj.Kills() != ref.inj.Kills() || got.inj.Drops() != ref.inj.Drops() {
					t.Errorf("fault schedule moved: %d crashes, %d drops; reference %d, %d",
						got.inj.Kills(), got.inj.Drops(), ref.inj.Kills(), ref.inj.Drops())
				}
				requireSameRun(t, ref, got)
			})
		}
	}
}

// TestPrefetchIntervalTriggerOnManualClock: the interval trigger decides a
// cut once per batch, before the next batch is fetched. On a ManualClock
// advanced only while the run waits for input, it cuts after the first
// batch of each chunk that arrives an interval later — where a loop that
// decides after applying the batch cuts.
func TestPrefetchIntervalTriggerOnManualClock(t *testing.T) {
	const chunk = 700 // two full poll batches and a partial one
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := obs.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			p, reports := shardedMaritimePipeline(t, false, shards,
				withConfigEdit(func(c *Config) { c.Partitions = 1 }), WithClock(clk))
			store := checkpoint.NewMemStore()
			cpr, err := checkpoint.NewCheckpointer(store, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, Interval: time.Minute})
				done <- err
			}()
			for c := 0; c < 3; c++ {
				if c > 0 {
					clk.Advance(time.Minute)
				}
				// One ProduceBatch lands the whole chunk at once, so the run
				// polls it as 256 + 256 + 188 records whatever the timing.
				recs := make([]msg.Record, chunk)
				for i, r := range reports[c*chunk : (c+1)*chunk] {
					recs[i] = msg.Record{Key: r.ID, Value: r.AppendBinary(nil), Time: r.Time}
				}
				if _, err := p.Broker.ProduceBatch(context.Background(), TopicRaw, recs); err != nil {
					t.Fatal(err)
				}
				waitCommitted(t, p.Broker, int64((c+1)*chunk))
			}
			if err := p.Broker.CloseTopic(TopicRaw); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, cp := range storedCheckpoints(t, store) {
				got = append(got, cp.Sources[0].Offsets[0])
			}
			want := []int64{chunk + pollBatch, 2*chunk + pollBatch}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("interval cuts at source offsets %v, want %v", got, want)
			}
		})
	}
}

// TestBlockLimitedRawTopicDrainsWithConcurrentIngest: a Block-limited raw
// topic whose capacity is below one poll batch holds the producer until
// the run commits. Commits come once per batch now, and a batch is fetched
// ahead only when records are buffered, so the run must neither deadlock
// with the producer nor change a byte of output.
func TestBlockLimitedRawTopicDrainsWithConcurrentIngest(t *testing.T) {
	base, reports := flowPipeline(t, 1, flow.Config{})
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, reports := limitedPipeline(t, shards, msg.TopicLimit{Capacity: pollBatch / 3, Policy: msg.Block})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			type result struct {
				sum Summary
				err error
			}
			done := make(chan result, 1)
			go func() {
				sum, err := p.RunWithRecovery(ctx, nil)
				done <- result{sum, err}
			}()
			if err := p.Ingest(ctx, reports); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			r := <-done
			if r.err != nil {
				t.Fatalf("run: %v", r.err)
			}
			if fmt.Sprint(r.sum) != fmt.Sprint(baseSum) {
				t.Errorf("summaries differ:\nunbounded %v\nbounded   %v", baseSum, r.sum)
			}
			requireIdenticalTopics(t, base.Broker, p.Broker)
		})
	}
}
