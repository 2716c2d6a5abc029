package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/gen"
)

// dashboardDigest is the recorded digest of a maritime run's end-of-run
// Dashboard positions and predictions (shardedMaritimePipeline, no CER). It
// was taken from a two-shard run while the merge still fed the Dashboard.
const dashboardDigest = "57c7d978fa1788d5"

// moverPicture is the part of a Dashboard snapshot the shard workers write:
// every mover's latest position and its last prediction.
func moverPicture(t *testing.T, p *Pipeline) (string, int, int) {
	t.Helper()
	snap := p.Dashboard.Snapshot(gen.DefaultStart)
	// JSON sorts the prediction map's keys and writes every float in its
	// shortest exact form, so equal digests mean bit-identical pictures.
	b, err := json.Marshal(struct {
		Positions   any
		Predictions any
	}{snap.Positions, snap.Predictions})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), len(snap.Positions), len(snap.Predictions)
}

// TestDashboardDigest: the end-of-run positions and predictions are the
// recorded ones at every shard count.
func TestDashboardDigest(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, reports := shardedMaritimePipeline(t, false, shards)
			if err := p.Ingest(context.Background(), reports); err != nil {
				t.Fatal(err)
			}
			if _, err := p.RunRealTime(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, pos, preds := moverPicture(t, p)
			if pos < 10 || preds < 10 {
				t.Fatalf("dashboard holds %d positions and %d predictions, want a fleet", pos, preds)
			}
			if got != dashboardDigest {
				t.Errorf("dashboard digest %s, want %s", got, dashboardDigest)
			}
		})
	}
}

// TestDashboardAfterRecovery pins the Dashboard's recovery contract for the
// state the shard workers write: after a run that crashes repeatedly and
// recovers in the same pipeline, every mover's position and prediction equal
// the clean run's. The critical-point, link and event rings are not held to
// it: a replayed span adds its entries to them again.
func TestDashboardAfterRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, reports := shardedMaritimePipeline(t, false, shards)
			if err := p.Ingest(context.Background(), reports); err != nil {
				t.Fatal(err)
			}
			cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(faultinject.Config{Seed: 42, KillMin: 900, KillMax: 1500})
			runUntilDone(t, p, &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}, 100)
			if inj.Kills() < 2 {
				t.Fatalf("only %d crashes injected; the test proved nothing", inj.Kills())
			}
			if got, _, _ := moverPicture(t, p); got != dashboardDigest {
				t.Errorf("dashboard digest after %d crashes %s, want the clean run's %s", inj.Kills(), got, dashboardDigest)
			}
		})
	}
}

// ringsDigest is the recorded digest of the manoeuvre-like run's end-of-run
// Dashboard rings: its recent critical points, links and event notes,
// recorded from a merge that added each note to the Dashboard as the point
// that raised it was merged.
const ringsDigest = "55befe3885670bf0"

// TestDashboardRingsDigest: the recent critical points, links and event
// notes the merge leaves on the Dashboard are the recorded ones at every
// shard count.
func TestDashboardRingsDigest(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := manoeuvrePipeline(t, shards)
			if _, err := p.RunRealTime(context.Background()); err != nil {
				t.Fatal(err)
			}
			snap := p.Dashboard.Snapshot(gen.DefaultStart)
			if len(snap.Criticals) == 0 || len(snap.Links) == 0 || len(snap.Events) == 0 {
				t.Fatalf("rings hold %d critical points, %d links and %d notes, want all three filled",
					len(snap.Criticals), len(snap.Links), len(snap.Events))
			}
			b, err := json.Marshal(struct {
				Criticals, Links, Events any
			}{snap.Criticals, snap.Links, snap.Events})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:8]); got != ringsDigest {
				t.Errorf("rings digest %s, want %s", got, ringsDigest)
			}
		})
	}
}
