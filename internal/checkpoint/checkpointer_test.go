package checkpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"datacron/internal/msg"
)

// counterOp is a toy Snapshotter: a single int64 counter.
type counterOp struct{ n int64 }

func (c *counterOp) Snapshot() ([]byte, error) { return json.Marshal(c.n) }
func (c *counterOp) Restore(b []byte) error    { return json.Unmarshal(b, &c.n) }

func newTestBroker(t *testing.T) *msg.Broker {
	t.Helper()
	b := msg.NewBroker()
	for _, topic := range []string{"raw", "out"} {
		if err := b.CreateTopic(topic, 2); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func produceN(t *testing.T, b *msg.Broker, topic string, n int, t0 time.Time) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%4)
		if _, err := b.Produce(context.Background(), topic, key, []byte{byte(i)}, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCaptureAndRestore(t *testing.T) {
	b := newTestBroker(t)
	t0 := time.Unix(1000, 0).UTC()
	produceN(t, b, "raw", 10, t0)
	produceN(t, b, "out", 4, t0)

	cons, err := b.NewConsumer("g", "raw", "m1")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cons.Poll(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		cons.Commit(r)
	}
	cons.Close()

	op := &counterOp{n: 42}
	cpr, err := NewCheckpointer(NewMemStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cpr.RegisterSource("g", "raw")
	cpr.RegisterOutput("out")
	cpr.Register("counter", op)

	gen, err := cpr.Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first generation = %d, want 1", gen)
	}
	if cpr.Captures() != 1 {
		t.Fatalf("Captures() = %d", cpr.Captures())
	}
	committedAtCp := b.CommittedOffsets("g", "raw")

	// Mutate the world past the checkpoint.
	produceN(t, b, "out", 5, t0.Add(time.Hour))
	b.RestoreOffsets("g", "raw", map[int]int64{0: 99, 1: 99})
	op.n = 1000

	if _, err := cpr.Restore(b); err != nil {
		t.Fatal(err)
	}
	if op.n != 42 {
		t.Errorf("operator state not restored: n=%d", op.n)
	}
	got := b.CommittedOffsets("g", "raw")
	for p, off := range committedAtCp {
		if got[p] != off {
			t.Errorf("partition %d: committed=%d want %d", p, got[p], off)
		}
	}
	for p := 0; p < 2; p++ {
		end, err := b.EndOffset("out", p)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := 0; i < 4; i++ { // only the pre-checkpoint records remain
			key := fmt.Sprintf("k%d", i%4)
			if msgHash(key, 2) == p {
				want++
			}
		}
		if end != want {
			t.Errorf("out/%d truncated to %d, want %d", p, end, want)
		}
	}
}

// msgHash mirrors the broker's key-hash partitioning for test expectations.
func msgHash(key string, parts int) int {
	rec, err := func() (msg.Record, error) {
		b := msg.NewBroker()
		if err := b.CreateTopic("probe", parts); err != nil {
			return msg.Record{}, err
		}
		return b.Produce(context.Background(), "probe", key, nil, time.Unix(0, 0))
	}()
	if err != nil {
		panic(err)
	}
	return rec.Partition
}

func TestRestoreNoCheckpoint(t *testing.T) {
	b := newTestBroker(t)
	cpr, err := NewCheckpointer(NewMemStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cpr.Restore(b)
	if err != nil || cp != nil {
		t.Fatalf("empty store: cp=%v err=%v, want nil,nil", cp, err)
	}
	if _, err := cpr.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty store: %v", err)
	}
}

// TestColdRestoreRewindsToGenerationZero: with no checkpoint in the store,
// Restore undoes what a crashed first attempt left in the broker — its
// commits and its output — and leaves operators as they are.
func TestColdRestoreRewindsToGenerationZero(t *testing.T) {
	b := newTestBroker(t)
	t0 := time.Unix(1000, 0).UTC()
	produceN(t, b, "raw", 10, t0)
	produceN(t, b, "out", 6, t0)
	c, err := b.NewConsumer("g", "raw", "m")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Commit(recs[len(recs)-1])
	c.Close()
	if len(b.CommittedOffsets("g", "raw")) == 0 {
		t.Fatal("no commit to rewind: the test set nothing up")
	}

	cpr, err := NewCheckpointer(NewMemStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cpr.RegisterSource("g", "raw")
	cpr.RegisterOutput("out")
	op := &counterOp{n: 7}
	cpr.Register("counter", op)
	cp, err := cpr.Restore(b)
	if err != nil || cp != nil {
		t.Fatalf("empty store: cp=%v err=%v, want nil,nil", cp, err)
	}
	if got := b.CommittedOffsets("g", "raw"); len(got) != 0 {
		t.Errorf("committed offsets after a cold restore: %v, want none", got)
	}
	if got := endOffsets(t, b, "out"); !reflect.DeepEqual(got, []int64{0, 0}) {
		t.Errorf("output ends after a cold restore: %v, want [0 0]", got)
	}
	if op.n != 7 {
		t.Errorf("cold restore changed operator state to %d", op.n)
	}
}

func TestCorruptedLatestFallsBack(t *testing.T) {
	b := newTestBroker(t)
	op := &counterOp{}
	cpr, err := NewCheckpointer(NewMemStore(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cpr.Register("counter", op)

	op.n = 1
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}
	op.n = 2
	gen2, err := cpr.Capture(b)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest generation in the store.
	store := cpr.store
	data, err := store.Load(gen2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := store.Save(gen2, data); err != nil {
		t.Fatal(err)
	}

	cp, err := cpr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation != gen2-1 {
		t.Fatalf("Latest fell back to gen %d, want %d", cp.Generation, gen2-1)
	}
	op.n = 999
	if _, err := cpr.Restore(b); err != nil {
		t.Fatal(err)
	}
	if op.n != 1 {
		t.Errorf("restored n=%d, want 1 (from the surviving generation)", op.n)
	}
	// The next capture must not collide with the corrupted generation.
	if gen, err := cpr.Capture(b); err != nil || gen != gen2-1+1 {
		t.Fatalf("capture after fallback: gen=%d err=%v", gen, err)
	}
}

func TestRetentionPrunes(t *testing.T) {
	b := newTestBroker(t)
	store := NewMemStore()
	cpr, err := NewCheckpointer(store, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cpr.Capture(b); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("retention: gens=%v, want [4 5]", gens)
	}
}

func TestNewCheckpointerResumesGeneration(t *testing.T) {
	b := newTestBroker(t)
	store := NewMemStore()
	cpr, err := NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}
	// A fresh checkpointer on the same store continues the sequence.
	cpr2, err := NewCheckpointer(store, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := cpr2.Capture(b)
	if err != nil || gen != 3 {
		t.Fatalf("resumed generation = %d err=%v, want 3", gen, err)
	}
}

func TestRestoreMissingOperatorState(t *testing.T) {
	b := newTestBroker(t)
	cpr, err := NewCheckpointer(NewMemStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpr.Capture(b); err != nil {
		t.Fatal(err)
	}
	// An operator registered after the capture has no state in the
	// checkpoint: restoring must fail loudly rather than run it cold.
	cpr.Register("late", &counterOp{})
	if _, err := cpr.Restore(b); err == nil {
		t.Fatal("restore with unregistered operator state succeeded")
	}
}

// TestRestoreMissingOperatorLeavesBrokerUntouched: a checkpoint that lacks
// state for a registered operator — one added since the capture, or a
// checkpoint written under another operator layout — must fail before
// Restore rewinds a committed offset or truncates an output record.
func TestRestoreMissingOperatorLeavesBrokerUntouched(t *testing.T) {
	cases := []struct {
		name     string
		captured []string // operators registered when the checkpoint was taken
		restored []string // operators registered when it is restored
	}{
		{"operator added after capture", []string{"counter"}, []string{"counter", "late"}},
		{"no operator captured", nil, []string{"counter"}},
		{"other layout", []string{"synopses", "flp"}, []string{"shard/meta", "shard/0/synopses", "shard/0/flp"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBroker(t)
			t0 := time.Unix(1000, 0).UTC()
			produceN(t, b, "raw", 10, t0)
			produceN(t, b, "out", 4, t0)
			store := NewMemStore()
			checkpointer := func(ops []string) *Checkpointer {
				cpr, err := NewCheckpointer(store, 2)
				if err != nil {
					t.Fatal(err)
				}
				cpr.RegisterSource("g", "raw")
				cpr.RegisterOutput("out")
				for _, name := range ops {
					cpr.Register(name, &counterOp{})
				}
				return cpr
			}
			if _, err := checkpointer(tc.captured).Capture(b); err != nil {
				t.Fatal(err)
			}

			// Move the world past the checkpoint.
			produceN(t, b, "out", 5, t0.Add(time.Hour))
			b.RestoreOffsets("g", "raw", map[int]int64{0: 3, 1: 4})
			wantOffs := b.CommittedOffsets("g", "raw")
			wantEnds := endOffsets(t, b, "out")

			if _, err := checkpointer(tc.restored).Restore(b); err == nil {
				t.Fatal("restore of a checkpoint missing operator state succeeded")
			}
			if got := b.CommittedOffsets("g", "raw"); !reflect.DeepEqual(got, wantOffs) {
				t.Errorf("committed offsets moved on a failed restore: %v, want %v", got, wantOffs)
			}
			if got := endOffsets(t, b, "out"); !reflect.DeepEqual(got, wantEnds) {
				t.Errorf("output truncated on a failed restore: ends %v, want %v", got, wantEnds)
			}
		})
	}
}

// endOffsets reads every partition's end offset of a topic.
func endOffsets(t *testing.T, b *msg.Broker, topic string) []int64 {
	t.Helper()
	n, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, n)
	for p := range ends {
		if ends[p], err = b.EndOffset(topic, p); err != nil {
			t.Fatal(err)
		}
	}
	return ends
}
