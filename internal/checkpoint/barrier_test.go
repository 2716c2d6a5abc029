package checkpoint

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func shardBlobs(tag string, shards int) []map[string][]byte {
	out := make([]map[string][]byte, shards)
	for i := range out {
		out[i] = map[string][]byte{
			"counts": []byte(tag + "-counts"),
			"flp":    []byte(tag + "-flp"),
		}
	}
	return out
}

func TestShardSnapshotsCaptureRestore(t *testing.T) {
	b := newTestBroker(t)
	produceN(t, b, "out", 2, time.Unix(1000, 0).UTC())
	store := NewMemStore()

	cpr, err := NewCheckpointer(store, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardSnapshots(2, []string{"counts", "flp"})
	ss.Register(cpr)
	if err := ss.SetEpoch(cpr.NextGeneration(), shardBlobs("epoch1", 2)); err != nil {
		t.Fatal(err)
	}
	gen, err := cpr.Capture(b)
	if err != nil {
		t.Fatal(err)
	}

	// A restarted pipeline builds a fresh bridge over the same store.
	cpr2, err := NewCheckpointer(store, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss2 := NewShardSnapshots(2, []string{"counts", "flp"})
	ss2.Register(cpr2)
	cp, err := cpr2.Restore(b)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Generation != gen {
		t.Fatalf("restored generation %+v, want %d", cp, gen)
	}
	if got := ss2.RestoredEpoch(); got != gen {
		t.Fatalf("RestoredEpoch = %d, want %d", got, gen)
	}
	for i := 0; i < 2; i++ {
		ops := ss2.Restored(i)
		if ops == nil {
			t.Fatalf("shard %d: no restored state", i)
		}
		if string(ops["counts"]) != "epoch1-counts" || string(ops["flp"]) != "epoch1-flp" {
			t.Fatalf("shard %d restored blobs = %q", i, ops)
		}
	}
}

func TestShardSnapshotsCountMismatch(t *testing.T) {
	b := newTestBroker(t)
	store := NewMemStore()

	cpr, _ := NewCheckpointer(store, 2)
	ss := NewShardSnapshots(2, []string{"counts"})
	ss.Register(cpr)
	blobs := shardBlobs("x", 2)
	for i := range blobs {
		delete(blobs[i], "flp")
	}
	if err := ss.SetEpoch(cpr.NextGeneration(), blobs); err != nil {
		t.Fatal(err)
	}
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}

	cpr2, _ := NewCheckpointer(store, 2)
	ss2 := NewShardSnapshots(3, []string{"counts"})
	ss2.Register(cpr2)
	_, err := cpr2.Restore(b)
	if err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("restore with mismatched shard count: err = %v, want shard-count error", err)
	}
}

func TestShardSnapshotsCaptureWithoutBarrier(t *testing.T) {
	b := newTestBroker(t)
	cpr, _ := NewCheckpointer(NewMemStore(), 2)
	ss := NewShardSnapshots(2, []string{"counts"})
	ss.Register(cpr)
	if _, err := cpr.Capture(b); err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("capture without barrier: err = %v, want barrier error", err)
	}
}

func TestShardSnapshotsEpochValidation(t *testing.T) {
	ss := NewShardSnapshots(4, []string{"counts"})
	if err := ss.SetEpoch(1, shardBlobs("x", 2)); err == nil {
		t.Fatal("SetEpoch with wrong shard-state count must fail")
	}
}

// TestShardSnapshotsOnRestore: with OnRestore, each shard blob reaches the
// workers while the Checkpointer restores operators, and a blob a worker
// rejects fails the restore before the broker's outputs move.
func TestShardSnapshotsOnRestore(t *testing.T) {
	b := newTestBroker(t)
	store := NewMemStore()
	cpr, _ := NewCheckpointer(store, 2)
	cpr.RegisterOutput("out")
	ss := NewShardSnapshots(2, []string{"counts", "flp"})
	ss.Register(cpr)
	if err := ss.SetEpoch(cpr.NextGeneration(), shardBlobs("epoch1", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "out", 6, time.Unix(1000, 0).UTC()) // past the checkpoint's output ends

	for _, reject := range []string{"flp", ""} {
		cpr2, _ := NewCheckpointer(store, 2)
		cpr2.RegisterOutput("out")
		ss2 := NewShardSnapshots(2, []string{"counts", "flp"})
		var applied []string
		ss2.OnRestore(func(shard int, op string, blob []byte) error {
			if op == reject && shard == 1 {
				return fmt.Errorf("shard %d rejects %s", shard, blob)
			}
			applied = append(applied, fmt.Sprintf("%d/%s=%s", shard, op, blob))
			return nil
		})
		ss2.Register(cpr2)
		end, _ := b.EndOffset("out", 0)
		_, err := cpr2.Restore(b)
		after, _ := b.EndOffset("out", 0)
		if reject == "" {
			want := "[0/counts=epoch1-counts 0/flp=epoch1-flp 1/counts=epoch1-counts 1/flp=epoch1-flp]"
			if err != nil || fmt.Sprint(applied) != want {
				t.Fatalf("restore: err %v, applied %v, want %s", err, applied, want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "shard 1 rejects epoch1-flp") {
			t.Fatalf("restore with a rejected blob: err = %v", err)
		}
		if after != end || end == 0 {
			t.Fatalf("a rejected shard blob moved the output end %d → %d", end, after)
		}
	}
}
