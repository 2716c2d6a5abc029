package msg

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"datacron/internal/obs"
)

func batchOf(n int, base time.Time) []Record {
	recs := make([]Record, n)
	for i := range recs {
		key := "mover-" + strconv.Itoa(i%7)
		recs[i] = Record{
			Key:   key,
			Value: []byte(fmt.Sprintf("payload-%d", i)),
			Time:  base.Add(time.Duration(i) * time.Second),
		}
	}
	return recs
}

// TestProduceBatchMatchesProduce pins the batch path's determinism contract:
// the same records through ProduceBatch and through per-record Produce land
// on the same partitions at the same offsets in the same order.
func TestProduceBatchMatchesProduce(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	recs := batchOf(40, base)

	one := NewBroker()
	if err := one.CreateTopic("raw", 4); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := one.Produce(context.Background(), "raw", r.Key, r.Value, r.Time); err != nil {
			t.Fatal(err)
		}
	}

	many := NewBroker()
	if err := many.CreateTopic("raw", 4); err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, len(recs))
	copy(batch, recs)
	n, err := many.ProduceBatch(context.Background(), "raw", batch)
	if err != nil {
		t.Fatalf("ProduceBatch: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("admitted %d of %d", n, len(recs))
	}

	for part := 0; part < 4; part++ {
		a, errA := one.Fetch(context.Background(), "raw", part, 0, len(recs)+1)
		b, errB := many.Fetch(context.Background(), "raw", part, 0, len(recs)+1)
		if (errA != nil) != (errB != nil) {
			t.Fatalf("partition %d: fetch errs diverge: %v vs %v", part, errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("partition %d: %d vs %d records", part, len(a), len(b))
		}
		for i := range a {
			if a[i].Offset != b[i].Offset || a[i].Key != b[i].Key ||
				string(a[i].Value) != string(b[i].Value) || !a[i].Time.Equal(b[i].Time) {
				t.Fatalf("partition %d record %d diverged:\n %+v\n %+v", part, i, a[i], b[i])
			}
		}
	}

	// The in-place assignment mirrors what the log stored.
	for i := range batch {
		if batch[i].Offset == RejectedOffset || batch[i].Topic != "raw" {
			t.Fatalf("record %d not assigned: %+v", i, batch[i])
		}
		if want := HashKey(batch[i].Key, 4); batch[i].Partition != want {
			t.Fatalf("record %d routed to %d, want %d", i, batch[i].Partition, want)
		}
	}
}

// TestProduceBatchAdmissionPerRecord: a batch straddling a DropNewest
// capacity boundary admits exactly the records per-record Produce would,
// marks the refused ones RejectedOffset, and does not error.
func TestProduceBatchAdmissionPerRecord(t *testing.T) {
	b := boundedTopic(t, 3, DropNewest)
	batch := batchOf(8, time.Unix(2000, 0).UTC())
	for i := range batch {
		batch[i].Key = "same-mover" // single partition: all contend for cap 3
	}
	n, err := b.ProduceBatch(context.Background(), "raw", batch)
	if err != nil {
		t.Fatalf("ProduceBatch: %v", err)
	}
	if n != 3 {
		t.Fatalf("admitted %d, want 3 (capacity)", n)
	}
	for i := range batch {
		if i < 3 && batch[i].Offset != int64(i) {
			t.Fatalf("record %d got offset %d, want %d", i, batch[i].Offset, i)
		}
		if i >= 3 && batch[i].Offset != RejectedOffset {
			t.Fatalf("record %d got offset %d, want RejectedOffset", i, batch[i].Offset)
		}
	}
	lim, _ := b.Limit("raw")
	if lim.Capacity != 3 {
		t.Fatalf("limit changed: %+v", lim)
	}
	ts, ok := b.Stats().Topic("raw")
	if !ok || ts.Rejected != 5 {
		t.Fatalf("rejected = %d, want 5", ts.Rejected)
	}
}

// TestProduceBatchDropOldest: under DropOldestUncommitted a full batch sheds
// the oldest uncommitted records to make room, exactly like per-record
// Produce.
func TestProduceBatchDropOldest(t *testing.T) {
	b := boundedTopic(t, 3, DropOldestUncommitted)
	base := time.Unix(3000, 0).UTC()
	batch := batchOf(5, base)
	for i := range batch {
		batch[i].Key = "same-mover"
	}
	n, err := b.ProduceBatch(context.Background(), "raw", batch)
	if err != nil {
		t.Fatalf("ProduceBatch: %v", err)
	}
	if n != 5 {
		t.Fatalf("admitted %d, want 5 (shedding makes room for all)", n)
	}
	// Offsets 0,1 were shed; 2,3,4 retained.
	if got := fetchOffsets(t, b, 0, 10); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("retained offsets %v, want [2 3 4]", got)
	}
}

// TestProduceBatchBlockedCancel: with the Block policy and a full partition,
// a cancelled context aborts the batch with the context error; records
// admitted before the boundary stand, the rest keep RejectedOffset.
func TestProduceBatchBlockedCancel(t *testing.T) {
	b := boundedTopic(t, 2, Block)
	batch := batchOf(4, time.Unix(4000, 0).UTC())
	for i := range batch {
		batch[i].Key = "same-mover"
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	n, err := b.ProduceBatch(ctx, "raw", batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 2 {
		t.Fatalf("admitted %d, want 2", n)
	}
	if batch[1].Offset != 1 || batch[2].Offset != RejectedOffset || batch[3].Offset != RejectedOffset {
		t.Fatalf("offsets after cancel: %d %d %d %d",
			batch[0].Offset, batch[1].Offset, batch[2].Offset, batch[3].Offset)
	}
}

// TestProduceBatchBlockedDrains: a batch larger than a Block-policy capacity
// completes once a consumer drains the backlog — the batch broadcasts its
// partial progress before waiting, so the consumer sees the early records.
func TestProduceBatchBlockedDrains(t *testing.T) {
	b := boundedTopic(t, 2, Block)
	c, err := b.NewConsumer("g", "raw", "m0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	batch := batchOf(6, time.Unix(5000, 0).UTC())
	for i := range batch {
		batch[i].Key = "same-mover"
	}
	go func() {
		n, err := b.ProduceBatch(context.Background(), "raw", batch)
		if err == nil && n != 6 {
			err = fmt.Errorf("admitted %d, want 6", n)
		}
		done <- err
	}()
	drained := 0
	deadline := time.After(5 * time.Second)
	for drained < 6 {
		recs, err := c.Poll(context.Background(), 2)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		for _, r := range recs {
			c.Commit(r)
			drained++
		}
		select {
		case <-deadline:
			t.Fatal("batch never drained")
		default:
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("batched produce: %v", err)
	}
}

// TestProduceBatchAllocs pins the batch plane's amortization contract: a
// steady-state batch produce allocates O(1) per batch (one log segment, which
// the truncate then releases), not O(n) per record.
func TestProduceBatchAllocs(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("raw", 1); err != nil {
		t.Fatal(err)
	}
	b.Instrument(obs.NewRegistry(obs.WallClock{}))
	const batchSize = 64
	batch := batchOf(batchSize, time.Unix(6000, 0).UTC())
	// Warm the partition log's segment index.
	if _, err := b.ProduceBatch(context.Background(), "raw", batch); err != nil {
		t.Fatal(err)
	}
	if err := b.Truncate("raw", 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.ProduceBatch(context.Background(), "raw", batch); err != nil {
			t.Fatal(err)
		}
		if err := b.Truncate("raw", 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	// O(1) per batch: far below one alloc per record (64/batch here).
	if allocs > 4 {
		t.Fatalf("ProduceBatch allocates %.1f per %d-record batch, want O(1)", allocs, batchSize)
	}
}
