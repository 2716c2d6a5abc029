package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/gen"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/synopses"
)

// The manoeuvre-like run's output digests (see topicDigest), recorded from
// a merge that produced every critical point's records to each topic
// separately. Staging TopicTriples, TopicLinks and TopicEvents per poll
// batch must reproduce them.
var manoeuvreDigests = map[string]string{
	TopicSynopses: "baf01920bbc356d0",
	TopicTriples:  "48e91f9bcbdb555e",
	TopicLinks:    "7744eb40641ae8e8",
	TopicEvents:   "45f0607ff0b5b1fb",
}

// manoeuvreCutsDigest digests the checkpoint cuts — generation, source
// offsets and output end offsets — of the manoeuvre-like run with a
// checkpoint after every poll batch, recorded from the per-point-produce
// merge. manoeuvreCheckpointDigests digests the stored checkpoint bytes per
// shard count (the operator layout depends on it), recorded from the
// fixed-size mover table layout (tag 0xCC: P² profiles, binary RMF*
// windows).
var (
	manoeuvreCutsDigest        = "a2ce99e50e28bae9"
	manoeuvreCheckpointDigests = map[int]string{1: "e6a17ae114c9ad56", 2: "1eca7566d58c383a"}
)

// manoeuvreKill is the crash ordinal of the faulted drill: the last record
// of the sixth poll batch, so the crash lands in a batch whose applied
// prefix has staged links and events that were never produced.
const manoeuvreKill = 6 * pollBatch

// manoeuvrePipeline is a small manoeuvre-like run, everything the merge
// can emit switched on: 24 zigzagging fishing vessels for 35 minutes under
// tight synopses thresholds (about half the records are critical points),
// 400 protected areas and 60 ports as link statics, the weather field, and
// CER trained on the critical points of the first third of the input.
func manoeuvrePipeline(t *testing.T, shards int) *Pipeline {
	t.Helper()
	return manoeuvrePipelineFor(t, shards, 35*time.Minute)
}

// manoeuvrePipelineFor is manoeuvrePipeline over a simulation of length d,
// built with opts after its configuration.
func manoeuvrePipelineFor(t *testing.T, shards int, d time.Duration, opts ...Option) *Pipeline {
	t.Helper()
	region := gen.AegeanRegion
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: 1, Region: region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Fishing: 24},
	})
	reports := sim.Run(d)
	cfg := Config{
		Domain:   mobility.Maritime,
		Synopses: synopses.DefaultMaritime(),
		Shards:   shards,
		Link: linkdisc.Config{
			Extent: region, GridCols: 64, GridRows: 64,
			MaskResolution: 8, NearDistanceM: 5_000,
		},
		Weather:    gen.NewWeatherField(1, gen.DefaultStart),
		Pattern:    "change_in_heading change_in_heading",
		Alphabet:   criticalAlphabet(),
		ModelOrder: 1,
		Theta:      0.5,
	}
	cfg.Synopses.HeadingDeltaDeg = 3
	cfg.Synopses.SpeedRatio = 0.05
	for _, a := range gen.Areas(1, gen.ProtectedArea, 400, region, 3_000, 25_000) {
		cfg.Statics = append(cfg.Statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
		cfg.Regions = append(cfg.Regions, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	for _, port := range gen.Ports(2, 60, region) {
		cfg.Statics = append(cfg.Statics, linkdisc.StaticEntity{ID: port.ID, Geom: port.Pos})
	}
	train, _ := synopses.Summarize(cfg.Synopses, reports[:len(reports)/3])
	for _, cp := range train {
		cfg.TrainSymbols = append(cfg.TrainSymbols, string(cp.Type))
	}
	p, err := New(append([]Option{WithConfig(cfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	return p
}

// topicDigest hashes every record of a closed topic — partition, offset,
// key, value and event time — partition by partition, in offset order.
func topicDigest(t *testing.T, b *msg.Broker, topic string) string {
	t.Helper()
	h := sha256.New()
	parts, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	contents := topicContents(t, b, topic)
	var buf []byte
	for p := 0; p < parts; p++ {
		for _, r := range contents[p] {
			buf = binary.AppendVarint(buf[:0], int64(r.Partition))
			buf = binary.AppendVarint(buf, r.Offset)
			buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
			buf = append(buf, r.Key...)
			buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
			buf = append(buf, r.Value...)
			buf = binary.AppendVarint(buf, r.Time.UnixNano())
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// requireManoeuvreDigests fails unless every output topic of p hashes to its
// recorded digest.
func requireManoeuvreDigests(t *testing.T, p *Pipeline) {
	t.Helper()
	for _, topic := range outputTopics {
		if got, want := topicDigest(t, p.Broker, topic), manoeuvreDigests[topic]; got != want {
			t.Errorf("%s digest %s, want %s", topic, got, want)
		}
	}
}

// runManoeuvreCuts runs the manoeuvre-like pipeline under RunWithRecovery
// with a checkpoint every `every` records and the injector faults fc (nil
// for none), restarting after each crash, and returns the store.
func runManoeuvreCuts(t *testing.T, shards, every int, fc *faultinject.Config) (*Pipeline, *checkpoint.MemStore, *faultinject.Injector) {
	t.Helper()
	p := manoeuvrePipeline(t, shards)
	store := checkpoint.NewMemStore()
	cpr, err := checkpoint.NewCheckpointer(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: every}
	if fc != nil {
		rc.Injector = faultinject.New(*fc)
	}
	runUntilDone(t, p, rc, 100)
	return p, store, rc.Injector
}

// TestStagedEmitDigests: the manoeuvre-like run publishes the recorded bytes
// on all four output topics at shards 1 and 2, clean and with a crash inside
// a batch that carries links and events.
func TestStagedEmitDigests(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d/clean", shards), func(t *testing.T) {
			p := manoeuvrePipeline(t, shards)
			if _, err := p.RunRealTime(context.Background()); err != nil {
				t.Fatal(err)
			}
			requireManoeuvreDigests(t, p)
		})
		t.Run(fmt.Sprintf("shards=%d/kill", shards), func(t *testing.T) {
			fc := faultinject.Config{Seed: 3, KillMin: manoeuvreKill, KillMax: manoeuvreKill}
			p, _, inj := runManoeuvreCuts(t, shards, 1000, &fc)
			if inj.Kills() == 0 {
				t.Fatal("no crash injected; the test proved nothing")
			}
			requireManoeuvreDigests(t, p)
		})
	}
}

// TestStagedEmitKillBatchCarriesLinksAndEvents keeps the drill honest: in a
// run cut after every poll batch, the batch manoeuvreKill ends must have
// published links and events, so the crash discards staged records of every
// batched topic.
func TestStagedEmitKillBatchCarriesLinksAndEvents(t *testing.T) {
	_, store, _ := runManoeuvreCuts(t, 1, pollBatch, nil)
	cps := storedCheckpoints(t, store)
	k := manoeuvreKill/pollBatch - 1 // the cut after the kill's batch
	if k < 1 || k >= len(cps) {
		t.Fatalf("%d cuts, want one after batch %d", len(cps), k+1)
	}
	for _, topic := range []string{TopicLinks, TopicEvents} {
		if grew := outputTotal(cps[k], topic) - outputTotal(cps[k-1], topic); grew < 2 {
			t.Errorf("%s grew by %d records in the kill's batch, want at least 2", topic, grew)
		}
	}
}

// outputTotal sums a checkpoint's end offsets of one output topic.
func outputTotal(cp *checkpoint.Checkpoint, topic string) int64 {
	var n int64
	for _, o := range cp.Outputs {
		if o.Topic == topic {
			for _, end := range o.Ends {
				n += end
			}
		}
	}
	return n
}

// TestStagedEmitCheckpointCuts: a checkpoint captured right after each poll
// batch records the output end offsets — and the bytes — the per-point-
// produce merge recorded.
func TestStagedEmitCheckpointCuts(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, store, _ := runManoeuvreCuts(t, shards, pollBatch, nil)
			requireManoeuvreDigests(t, p)
			h, raw := sha256.New(), sha256.New()
			gens, err := store.Generations()
			if err != nil {
				t.Fatal(err)
			}
			for _, cp := range storedCheckpoints(t, store) {
				fmt.Fprintln(h, cp.Generation, cp.Sources, cp.Outputs)
			}
			for _, g := range gens {
				data, err := store.Load(g)
				if err != nil {
					t.Fatal(err)
				}
				raw.Write(data)
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != manoeuvreCutsDigest {
				t.Errorf("checkpoint cuts digest %s, want %s", got, manoeuvreCutsDigest)
			}
			if got := hex.EncodeToString(raw.Sum(nil)[:8]); got != manoeuvreCheckpointDigests[shards] {
				t.Errorf("checkpoint bytes digest %s, want %s", got, manoeuvreCheckpointDigests[shards])
			}
		})
	}
}

// TestStagedEmitRefusalsFailTheRun: a drop policy on any batched output
// topic must not thin the output silently. A record it refuses fails the
// run with ErrTopicFull, as a refused per-record Produce did.
func TestStagedEmitRefusalsFailTheRun(t *testing.T) {
	for _, topic := range []string{TopicTriples, TopicLinks, TopicEvents} {
		t.Run(topic, func(t *testing.T) {
			p := manoeuvrePipeline(t, 1)
			if err := p.Broker.LimitTopic(topic, msg.TopicLimit{Capacity: 1, Policy: msg.DropNewest}); err != nil {
				t.Fatal(err)
			}
			if _, err := p.RunRealTime(context.Background()); !errors.Is(err, msg.ErrTopicFull) {
				t.Fatalf("run with a drop-newest %s = %v, want ErrTopicFull", topic, err)
			}
		})
	}
}
