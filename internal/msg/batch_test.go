package msg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	ts, ok := b.Stats().Topic("raw")
	if !ok || ts.Capacity != 3 {
		t.Fatalf("limit changed: %+v", ts)
	}
	if ts.Rejected != 5 {
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

// keyRunBatch builds n records whose keys come in runs of 1–5 equal keys,
// the way a critical point's triples share a few subjects. Most keys are
// slices of one string, so equal keys in a run share their bytes; every
// third run uses a separately built copy, equal in content only. The runs
// interleave partitions.
func keyRunBatch(rng *rand.Rand, n int) []Record {
	const pool = "vessel-0|vessel-1|vessel-2|vessel-3|vessel-4|vessel-5|vessel-6|vessel-7|vessel-8"
	recs := make([]Record, 0, n)
	for run := 0; len(recs) < n; run++ {
		k := rng.Intn(9)
		key := pool[9*k : 9*k+8]
		for j := 1 + rng.Intn(5); j > 0 && len(recs) < n; j-- {
			if run%3 == 2 {
				key = "vessel-" + strconv.Itoa(k)
			}
			recs = append(recs, Record{
				Key:   key,
				Value: []byte(fmt.Sprintf("%s/%d", key, len(recs))),
				Time:  time.Unix(int64(7000+len(recs)), 0).UTC(),
			})
		}
	}
	return recs
}

// TestProduceBatchKeyRunsMatchProduce extends the batch-vs-per-record
// comparison to what the merge's per-batch emit sends: batches with key
// runs over interleaved partitions, on unbounded topics (more partitions
// than ProduceBatch's on-stack grouping covers too) and on drop-policy
// topics. Every record must get the partition, offset or refusal
// per-record Produce gives it, and the logs and counters must agree.
func TestProduceBatchKeyRunsMatchProduce(t *testing.T) {
	cases := []struct {
		name  string
		parts int
		limit *TopicLimit
	}{
		{"unbounded/4", 4, nil},
		{"unbounded/12", 12, nil},
		{"drop-newest/3", 3, &TopicLimit{Capacity: 20, Policy: DropNewest}},
		{"drop-oldest/5", 5, &TopicLimit{Capacity: 7, Policy: DropOldestUncommitted}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one, many := NewBroker(), NewBroker()
			for _, b := range []*Broker{one, many} {
				if err := b.CreateTopic("out", c.parts); err != nil {
					t.Fatal(err)
				}
				if c.limit != nil {
					if err := b.LimitTopic("out", *c.limit); err != nil {
						t.Fatal(err)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(c.parts)))
			for step := 0; step < 6; step++ {
				batch := keyRunBatch(rng, 1+rng.Intn(120))
				want := make([]Record, len(batch))
				wantAdmitted := 0
				for i, r := range batch {
					got, err := one.Produce(ctx, "out", r.Key, r.Value, r.Time)
					switch {
					case err == nil:
						wantAdmitted++
						want[i] = got
					case errors.Is(err, ErrTopicFull):
						want[i] = Record{Topic: "out", Partition: HashKey(r.Key, c.parts),
							Offset: RejectedOffset, Key: r.Key, Value: r.Value, Time: r.Time}
					default:
						t.Fatal(err)
					}
				}
				admitted, err := many.ProduceBatch(ctx, "out", batch)
				if err != nil {
					t.Fatal(err)
				}
				if admitted != wantAdmitted {
					t.Fatalf("step %d: admitted %d, per-record %d", step, admitted, wantAdmitted)
				}
				for i := range batch {
					if !sameRecord(batch[i], want[i]) {
						t.Fatalf("step %d record %d: batch %+v, per-record %+v", step, i, batch[i], want[i])
					}
				}
			}
			if c.limit != nil && c.limit.Policy == DropNewest {
				if ts, _ := many.Stats().Topic("out"); ts.Rejected == 0 {
					t.Fatal("no record refused; the drop-policy case proved nothing")
				}
			}
			if fmt.Sprint(one.Stats()) != fmt.Sprint(many.Stats()) {
				t.Fatalf("stats differ:\nper-record %+v\nbatch      %+v", one.Stats(), many.Stats())
			}
			for p := 0; p < c.parts; p++ {
				a, b := partitionLog(t, one, p), partitionLog(t, many, p)
				if len(a) != len(b) {
					t.Fatalf("partition %d: %d records vs %d", p, len(a), len(b))
				}
				for i := range a {
					if !sameRecord(a[i], b[i]) {
						t.Fatalf("partition %d record %d: per-record %+v, batch %+v", p, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// partitionLog returns every record retained in one partition of "out".
func partitionLog(t *testing.T, b *Broker, p int) []Record {
	t.Helper()
	end, err := b.EndOffset("out", p)
	if err != nil || end == 0 {
		return nil
	}
	recs, err := b.Fetch(context.Background(), "out", p, 0, int(end))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestProduceBatchAbortRejectsTheRest: when a Block-policy partition aborts
// the batch, every record not admitted — in that partition and in every
// partition after it — reads RejectedOffset, never a leftover of the
// batch's partition grouping.
func TestProduceBatchAbortRejectsTheRest(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("out", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.LimitTopic("out", TopicLimit{Capacity: 1, Policy: Block}); err != nil {
		t.Fatal(err)
	}
	batch := keyRunBatch(rand.New(rand.NewSource(1)), 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	admitted, err := b.ProduceBatch(ctx, "out", batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Partition 0 admits its first record, then blocks on a cancelled
	// context: nothing of partitions 1 and 2 is produced.
	if admitted != 1 {
		t.Fatalf("admitted %d, want 1", admitted)
	}
	for i, r := range batch {
		first := r.Partition == 0 && r.Offset == 0
		if !first && r.Offset != RejectedOffset {
			t.Fatalf("record %d (partition %d) has offset %d, want RejectedOffset", i, r.Partition, r.Offset)
		}
		if want := HashKey(r.Key, 3); r.Partition != want {
			t.Fatalf("record %d routed to %d, want %d", i, r.Partition, want)
		}
	}
}
