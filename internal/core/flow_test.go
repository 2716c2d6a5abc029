package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/flow"
	"datacron/internal/gen"
	"datacron/internal/mobility"
	"datacron/internal/msg"
)

// flowPipeline builds a maritime pipeline with the admission-control plane
// armed on a single-partition raw topic — one partition makes shedding and
// eviction decisions a pure fold of the report sequence, so runs are
// comparable byte for byte.
func flowPipeline(t *testing.T, shards int, fc flow.Config) (*Pipeline, []mobility.Report) {
	t.Helper()
	p, err := New(
		WithConfig(Config{Domain: mobility.Maritime, Partitions: 1}),
		WithShards(shards),
		WithFlow(fc),
	)
	if err != nil {
		t.Fatal(err)
	}
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 77, Region: region, GapProb: 0.005})
	return p, sim.Run(time.Hour)
}

// limitedPipeline is flowPipeline without the plane: no shedder, and the raw
// topic bounded directly, so the broker's overload policy takes all the
// pressure and Ingest produces in batches.
func limitedPipeline(t *testing.T, shards int, l msg.TopicLimit) (*Pipeline, []mobility.Report) {
	t.Helper()
	p, reports := flowPipeline(t, shards, flow.Config{})
	if err := p.Broker.LimitTopic(TopicRaw, l); err != nil {
		t.Fatal(err)
	}
	return p, reports
}

// TestSentinelErrorsAreDistinct pins the errors.Is contract of the three
// overload sentinels: each wrapped error matches its own sentinel and no
// other, so callers can branch on the failure class.
func TestSentinelErrorsAreDistinct(t *testing.T) {
	wrappedFull := fmt.Errorf("%w: raw/0 at capacity", msg.ErrTopicFull)
	wrappedShed := fmt.Errorf("%w: mover v1", flow.ErrShed)
	wrappedBp := fmt.Errorf("%w: %w", ErrBackpressure, context.Canceled)
	cases := []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"full matches full", wrappedFull, msg.ErrTopicFull, true},
		{"full is not shed", wrappedFull, flow.ErrShed, false},
		{"full is not backpressure", wrappedFull, ErrBackpressure, false},
		{"shed matches shed", wrappedShed, flow.ErrShed, true},
		{"shed is not full", wrappedShed, msg.ErrTopicFull, false},
		{"backpressure matches backpressure", wrappedBp, ErrBackpressure, true},
		{"backpressure carries the context cause", wrappedBp, context.Canceled, true},
		{"backpressure is not full", wrappedBp, msg.ErrTopicFull, false},
	}
	for _, c := range cases {
		if got := errors.Is(c.err, c.target); got != c.want {
			t.Errorf("%s: errors.Is = %t, want %t", c.name, got, c.want)
		}
	}
}

// TestIngestBackpressureHonorsContext: with the Block policy and no consumer
// draining, Ingest must stop at the caller's deadline and surface the stall
// as ErrBackpressure wrapping the context error.
func TestIngestBackpressureHonorsContext(t *testing.T) {
	p, reports := limitedPipeline(t, 1, msg.TopicLimit{Capacity: 8, Policy: msg.Block})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := p.Ingest(ctx, reports)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("Ingest past capacity: err = %v, want ErrBackpressure", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Ingest must carry the context cause: %v", err)
	}
}

// TestIngestDropNewestCountsRejects: rejected records are bookkeeping, not
// failures — Ingest completes and reports them in the flow stats.
func TestIngestDropNewestCountsRejects(t *testing.T) {
	p, reports := limitedPipeline(t, 1, msg.TopicLimit{Capacity: 64, Policy: msg.DropNewest})
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatalf("Ingest with drop-newest must not fail: %v", err)
	}
	st := p.Stats()
	if st.Flow.RejectedFull == 0 {
		t.Fatal("no rejected records: the test applied no pressure")
	}
	raw, _ := p.Broker.Stats().Topic(TopicRaw)
	if raw.Backlog > 64 {
		t.Fatalf("backlog %d exceeds the configured capacity", raw.Backlog)
	}
}

// TestIngestSheddedProduceErrors drives every outcome of a produce behind
// the shedder: Block stalls until the deadline and surfaces
// ErrBackpressure, DropNewest refusals are counted beside the sheds, and a
// closed raw topic fails the Ingest.
func TestIngestSheddedProduceErrors(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		p, reports := flowPipeline(t, 1, flow.Config{QueueCap: 8, Policy: msg.Block})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		err := p.Ingest(ctx, reports)
		if !errors.Is(err, ErrBackpressure) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Ingest past capacity: err = %v, want ErrBackpressure wrapping the deadline", err)
		}
	})
	t.Run("drop-newest", func(t *testing.T) {
		p, reports := flowPipeline(t, 1, flow.Config{QueueCap: 64, Policy: msg.DropNewest})
		if err := p.Ingest(context.Background(), reports); err != nil {
			t.Fatalf("Ingest with drop-newest must not fail: %v", err)
		}
		st := p.Stats().Flow
		if st.RejectedFull == 0 || st.Shedder.Shed() == 0 {
			t.Fatalf("flow stats %+v: want both sheds and rejections", st)
		}
	})
	t.Run("closed", func(t *testing.T) {
		p, reports := flowPipeline(t, 1, flow.Config{QueueCap: 64, Policy: msg.DropNewest})
		if err := p.Broker.CloseTopic(TopicRaw); err != nil {
			t.Fatal(err)
		}
		if err := p.Ingest(context.Background(), reports); !errors.Is(err, msg.ErrClosed) {
			t.Fatalf("Ingest into a closed raw topic: %v, want msg.ErrClosed", err)
		}
	})
}

// TestShardsByteIdenticalUnderPressure extends the shard determinism
// contract to an overloaded ingest: with a bounded single-partition topic,
// priority shedding and drop-oldest both active, a 4-shard run must still
// publish byte-identical outputs to the serial run — admission decisions are
// made before partitioning and must not depend on the shard count.
func TestShardsByteIdenticalUnderPressure(t *testing.T) {
	fc := flow.Config{QueueCap: 256, Policy: msg.DropOldestUncommitted}
	base, reports := flowPipeline(t, 1, fc)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	if shed := base.Stats().Flow.Shedder.Shed(); shed == 0 {
		t.Fatal("nothing shed: the test applied no pressure")
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	p, reports2 := flowPipeline(t, 4, fc)
	if len(reports2) != len(reports) {
		t.Fatalf("simulation not deterministic: %d vs %d reports", len(reports2), len(reports))
	}
	if err := p.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stats().Flow.Shedder, base.Stats().Flow.Shedder; got != want {
		t.Fatalf("shed decisions depend on shard count: %+v vs %+v", got, want)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nserial  %v\nsharded %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, p.Broker)
}

// TestOverloadCrashRecoveryByteIdentical is the acceptance test for the
// bounded plane's recovery story: an overload-thinned raw log (records
// evicted by DropOldestUncommitted during ingest) driven through repeated
// injected crashes and checkpoint replays must publish byte-identical
// outputs to a clean run over the same thinned log.
func TestOverloadCrashRecoveryByteIdentical(t *testing.T) {
	// No shedder: the pressure goes into the broker, so evictions (not
	// just sheds) are replayed. The capacity keeps the thinned log several
	// poll batches long: checkpoints are captured only between batches, so a
	// log shorter than one batch could never checkpoint and the restart loop
	// would livelock.
	limit := msg.TopicLimit{Capacity: 2048, Policy: msg.DropOldestUncommitted}
	base, reports := limitedPipeline(t, 1, limit)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	rawBase, _ := base.Broker.Stats().Topic(TopicRaw)
	if rawBase.Evicted == 0 {
		t.Fatal("nothing evicted: the test applied no overload")
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := limitedPipeline(t, 1, limit)
	if err := faulty.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	rawFaulty, _ := faulty.Broker.Stats().Topic(TopicRaw)
	if rawFaulty.Evicted != rawBase.Evicted {
		t.Fatalf("ingest not deterministic: %d vs %d evictions", rawFaulty.Evicted, rawBase.Evicted)
	}
	cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The thinned log retains only ~QueueCap records, so the kill cadence is
	// tighter than the unbounded recovery tests — but KillMin stays above
	// the checkpoint interval plus one poll batch, per the injector's
	// livelock warning.
	inj := faultinject.New(faultinject.Config{Seed: 42, KillMin: 600, KillMax: 1000})
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 256, Injector: inj}

	sum, restarts := runUntilDone(t, faulty, rc, 100)
	if inj.Kills() < 2 {
		t.Fatalf("only %d crashes injected; the test proved nothing", inj.Kills())
	}
	t.Logf("replayed an overload-thinned log through %d crashes (%d restarts, %d checkpoints, %d evictions)",
		inj.Kills(), restarts, cpr.Captures(), rawFaulty.Evicted)

	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nbase    %v\nrecover %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)
}
