package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/msg"
	"datacron/internal/wire"
)

// topicContents reads every record of every partition of a topic. The topic
// must be closed (or fully produced) so the fetches cannot block.
func topicContents(t *testing.T, b *msg.Broker, topic string) map[int][]msg.Record {
	t.Helper()
	parts, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int][]msg.Record, parts)
	for p := 0; p < parts; p++ {
		end, err := b.EndOffset(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		if end == 0 {
			continue
		}
		recs, err := b.Fetch(context.Background(), topic, p, 0, int(end))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(recs)) != end {
			t.Fatalf("%s/%d: fetched %d of %d records", topic, p, len(recs), end)
		}
		out[p] = recs
	}
	return out
}

// requireIdenticalTopics fails unless both brokers hold byte-identical
// contents — offsets, keys, values and event times — on every output topic.
func requireIdenticalTopics(t *testing.T, want, got *msg.Broker) {
	t.Helper()
	for _, topic := range outputTopics {
		a, b := topicContents(t, want, topic), topicContents(t, got, topic)
		if len(a) != len(b) {
			t.Errorf("%s: partition sets differ: %d vs %d", topic, len(a), len(b))
			continue
		}
		for p, recsA := range a {
			recsB := b[p]
			if len(recsA) != len(recsB) {
				t.Errorf("%s/%d: %d records vs %d", topic, p, len(recsA), len(recsB))
				continue
			}
			for i := range recsA {
				ra, rb := recsA[i], recsB[i]
				if ra.Offset != rb.Offset || ra.Key != rb.Key ||
					string(ra.Value) != string(rb.Value) || !ra.Time.Equal(rb.Time) {
					t.Errorf("%s/%d offset %d differs:\nbase    %d %q %q %v\nrecover %d %q %q %v",
						topic, p, i, ra.Offset, ra.Key, ra.Value, ra.Time,
						rb.Offset, rb.Key, rb.Value, rb.Time)
					break
				}
			}
		}
	}
}

// runUntilDone drives RunWithRecovery through injected crashes until a run
// completes, returning the final summary and the number of restarts.
func runUntilDone(t *testing.T, p *Pipeline, rc *RecoveryConfig, maxRestarts int) (Summary, int) {
	t.Helper()
	restarts := 0
	for {
		sum, err := p.RunWithRecovery(context.Background(), rc)
		if err == nil {
			return sum, restarts
		}
		if !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("run failed with a non-injected error: %v", err)
		}
		restarts++
		if restarts > maxRestarts {
			t.Fatalf("pipeline did not finish within %d restarts", maxRestarts)
		}
	}
}

// TestRecoveryByteIdenticalOutput is the headline fault-tolerance test: a
// maritime pipeline killed repeatedly mid-stream and recovered from
// checkpoints must publish byte-identical output topics and an identical
// summary to an uninterrupted run of the same input.
func TestRecoveryByteIdenticalOutput(t *testing.T) {
	base, reports := maritimePipeline(t, true)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := maritimePipeline(t, true)
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
	t.Logf("recovered from %d crashes (%d restarts, %d checkpoints, %d dropped batches)",
		inj.Kills(), restarts, cpr.Captures(), inj.Drops())

	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nbase    %v\nrecover %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)
}

// TestRecoveryCorruptedCheckpointFallsBack corrupts the newest on-disk
// checkpoint after a crash: recovery must fall back to the previous
// generation and still reproduce byte-identical output.
func TestRecoveryCorruptedCheckpointFallsBack(t *testing.T) {
	base, reports := maritimePipeline(t, false)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := maritimePipeline(t, false)
	if err := faulty.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cpr, err := checkpoint.NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	// KillMin 1200 guarantees at least two checkpoints (every >=300 records at
	// <=256-record batch boundaries: 512 and 1024) before the first crash, so
	// the corrupted newest generation always has a valid predecessor.
	inj := faultinject.New(faultinject.Config{Seed: 7, KillMin: 1200, KillMax: 1600})
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}

	_, err = faulty.RunWithRecovery(context.Background(), rc)
	if !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("first run: got %v, want an injected crash", err)
	}

	before, err := cpr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Corrupt(store); err != nil {
		t.Fatal(err)
	}
	after, err := cpr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation-1 {
		t.Fatalf("after corruption Latest() = gen %d, want fallback to %d",
			after.Generation, before.Generation-1)
	}

	// Resume (without further faults) from the surviving older generation.
	sum, restarts := runUntilDone(t, faulty, &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300}, 1)
	if restarts != 0 {
		t.Fatalf("clean resume crashed %d times", restarts)
	}
	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nbase    %v\nrecover %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)
}

// TestCancelWhilePollingStagesBarrier pins the graceful-shutdown path: a run
// cancelled must leave a barrier staged at the cut it stopped at, so the
// caller's final Capture succeeds and its shard/meta epoch is the generation
// it wrote — with earlier checkpoints in the store, whose barriers are stale
// by then. The cancel lands either while Poll blocks on an open raw topic
// the run has drained, or mid-stream, where a batch fetched ahead is
// usually in flight and must be applied before the run exits. Either way a
// run resumed from the final capture must finish byte-identical to an
// uninterrupted one.
func TestCancelWhilePollingStagesBarrier(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, false, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, midStream := range []bool{false, true} {
				t.Run(fmt.Sprintf("midStream=%t", midStream), func(t *testing.T) {
					p, reports := shardedMaritimePipeline(t, false, shards)
					// Produce without closing the topic: once drained, Poll blocks.
					for _, r := range reports {
						if _, err := p.Broker.Produce(context.Background(), TopicRaw, r.ID, r.AppendBinary(nil), r.Time); err != nil {
							t.Fatal(err)
						}
					}
					cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
					if err != nil {
						t.Fatal(err)
					}
					rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 960}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					done := make(chan error, 1)
					go func() {
						_, err := p.RunWithRecovery(ctx, rc)
						done <- err
					}()
					if midStream {
						waitCommitted(t, p.Broker, int64(len(reports)/2))
					} else {
						waitCommitted(t, p.Broker, int64(len(reports)))
						// Give the loop time to park in Poll. If it is still at the
						// loop top when the cancel lands, that exit must stage the
						// same cut, so the assertions hold either way.
						time.Sleep(20 * time.Millisecond)
					}
					cancel()
					if err := <-done; !errors.Is(err, context.Canceled) {
						t.Fatalf("run returned %v, want context.Canceled", err)
					}
					if cpr.Captures() == 0 {
						t.Fatal("no checkpoint before the cancel; lower EveryRecords")
					}

					gen, err := cpr.Capture(p.Broker)
					if err != nil {
						t.Fatalf("final capture: %v", err)
					}
					cp, err := cpr.Latest()
					if err != nil {
						t.Fatal(err)
					}
					// shard/meta is tag, version, uvarint shards, uvarint epoch.
					meta := wire.NewReader(cp.Operators["shard/meta"])
					if err := meta.Header(wire.TagShardMeta); err != nil {
						t.Fatalf("decode shard/meta: %v", err)
					}
					metaShards, epoch := meta.Uvarint(), meta.Uvarint()
					if err := meta.Err(); err != nil || metaShards != uint64(shards) {
						t.Fatalf("decode shard/meta: %d shards, err %v", metaShards, err)
					}
					if cp.Generation != gen || epoch != gen {
						t.Fatalf("final capture wrote generation %d with barrier epoch %d, want both %d", cp.Generation, epoch, gen)
					}

					if err := p.Broker.CloseTopic(TopicRaw); err != nil {
						t.Fatal(err)
					}
					sum, err := p.RunWithRecovery(context.Background(), rc)
					if err != nil {
						t.Fatalf("resume from the final capture: %v", err)
					}
					if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
						t.Errorf("summaries differ:\nuninterrupted %v\nresumed       %v", baseSum, sum)
					}
					requireIdenticalTopics(t, base.Broker, p.Broker)
				})
			}
		})
	}
}

// waitCommitted blocks until the real-time group has committed n raw
// records.
func waitCommitted(t *testing.T, b *msg.Broker, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var committed int64
		for _, off := range b.CommittedOffsets(sourceGroup, TopicRaw) {
			committed += off
		}
		if committed >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("committed %d of %d records before the deadline", committed, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleShardCheckpointLayout pins the one checkpoint layout: a shards=1
// run is a plane of one, so its capture holds the plane's meta and shard-0
// entries beside the merge stage's operators, and nothing under any other
// name.
func TestSingleShardCheckpointLayout(t *testing.T) {
	for _, withCER := range []bool{false, true} {
		p, reports := maritimePipeline(t, withCER)
		if err := p.Ingest(context.Background(), reports); err != nil {
			t.Fatal(err)
		}
		cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300}); err != nil {
			t.Fatal(err)
		}
		cp, err := cpr.Latest()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range cp.Operators {
			got = append(got, name)
		}
		sort.Strings(got)
		want := []string{"linkdisc", "shard/0/movers", "shard/meta", "summary"}
		if withCER {
			want = append([]string{"cer"}, want...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cer=%v: checkpoint operators %v, want %v", withCER, got, want)
		}
	}
}
