package msg

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func boundedTopic(t *testing.T, cap int, policy OverloadPolicy) *Broker {
	t.Helper()
	b := NewBroker()
	if err := b.CreateTopic("raw", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.LimitTopic("raw", TopicLimit{Capacity: cap, Policy: policy}); err != nil {
		t.Fatal(err)
	}
	return b
}

func mustProduce(t *testing.T, b *Broker, key string, ts time.Time) Record {
	t.Helper()
	rec, err := b.Produce(context.Background(), "raw", key, []byte(key), ts)
	if err != nil {
		t.Fatalf("Produce %s: %v", key, err)
	}
	return rec
}

func fetchOffsets(t *testing.T, b *Broker, from int64, max int) []int64 {
	t.Helper()
	recs, err := b.Fetch(context.Background(), "raw", 0, from, max)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Offset
	}
	return out
}

// TestOverloadPolicyRoundTrip pins the flag spelling both ways.
func TestOverloadPolicyRoundTrip(t *testing.T) {
	for _, p := range []OverloadPolicy{Block, DropNewest, DropOldestUncommitted} {
		got, err := ParseOverloadPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseOverloadPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseOverloadPolicy("nope"); err == nil {
		t.Fatal("ParseOverloadPolicy must reject unknown spellings")
	}
}

// TestDropNewestRejectsWithSentinel: at capacity the incoming record is
// rejected with an error identifiable as ErrTopicFull, the log is untouched,
// and the rejection is counted.
func TestDropNewestRejectsWithSentinel(t *testing.T) {
	b := boundedTopic(t, 2, DropNewest)
	ts := time.Unix(0, 0)
	mustProduce(t, b, "a", ts)
	mustProduce(t, b, "b", ts)
	_, err := b.Produce(context.Background(), "raw", "c", []byte("c"), ts)
	if !errors.Is(err, ErrTopicFull) {
		t.Fatalf("Produce at capacity: err = %v, want ErrTopicFull", err)
	}
	st, _ := b.Stats().Topic("raw")
	if st.Backlog != 2 || st.Rejected != 1 || st.Evicted != 0 {
		t.Fatalf("stats after reject: %+v", st)
	}
	if got := fetchOffsets(t, b, 0, 10); len(got) != 2 {
		t.Fatalf("log mutated by rejected produce: offsets %v", got)
	}
}

// TestBlockHonorsContext: a Block-policy produce at capacity must return the
// caller's context error — immediately for a cancelled context, within the
// deadline for an expiring one — wrapped so errors.Is still sees it.
func TestBlockHonorsContext(t *testing.T) {
	b := boundedTopic(t, 1, Block)
	ts := time.Unix(0, 0)
	mustProduce(t, b, "a", ts)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Produce(cancelled, "raw", "b", []byte("b"), ts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled produce: err = %v, want context.Canceled", err)
	}

	expiring, done := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer done()
	start := time.Now()
	_, err := b.Produce(expiring, "raw", "b", []byte("b"), ts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expiring produce: err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("produce blocked %v past its deadline", waited)
	}
}

// TestBlockUnblocksOnCommit: a blocked producer resumes as soon as the
// consumer commits enough records to pull the backlog below capacity —
// backpressure, not deadlock.
func TestBlockUnblocksOnCommit(t *testing.T) {
	b := boundedTopic(t, 2, Block)
	ts := time.Unix(0, 0)
	mustProduce(t, b, "a", ts)
	mustProduce(t, b, "b", ts)

	produced := make(chan error, 1)
	go func() {
		_, err := b.Produce(context.Background(), "raw", "c", []byte("c"), ts)
		produced <- err
	}()

	cons, err := b.NewConsumer("grp", "raw", "m0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	recs, err := cons.Poll(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cons.Commit(recs[0])

	select {
	case err := <-produced:
		if err != nil {
			t.Fatalf("unblocked produce failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after a commit freed capacity")
	}
}

// TestDropOldestNeverCrossesReplayFloor is the determinism contract of
// DropOldestUncommitted, driven as a single-threaded script: evictions must
// always target the oldest record above both the live commit floor and the
// pinned replay floor, so the records a checkpoint replay re-reads are
// exactly the records the original run consumed — even after an offset
// rewind drops the live floor back down.
func TestDropOldestNeverCrossesReplayFloor(t *testing.T) {
	b := boundedTopic(t, 3, DropOldestUncommitted)
	ts := time.Unix(0, 0)

	// Cold start: replay would begin at offset 0.
	if err := b.PinReplayFloor("raw", nil); err != nil {
		t.Fatal(err)
	}

	// Fill to capacity, then overflow by one: r0 (oldest, uncommitted,
	// at the replay floor's edge... but floor is 0 so r0 itself is above it
	// and sheddable) is evicted to admit r3.
	for _, k := range []string{"r0", "r1", "r2"} {
		mustProduce(t, b, k, ts)
	}
	mustProduce(t, b, "r3", ts)
	if got := fetchOffsets(t, b, 0, 10); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("after first eviction: offsets %v, want [1 2 3]", got)
	}

	// Consume and commit everything: the floor advances to 4, and — with the
	// topic pinned — so does the replay high-water mark.
	cons, err := b.NewConsumer("grp", "raw", "m0")
	if err != nil {
		t.Fatal(err)
	}
	var consumed []string
	for i := 0; i < 3; i++ {
		recs, err := cons.Poll(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			consumed = append(consumed, string(r.Value))
			cons.Commit(r)
		}
	}
	cons.Close()
	if fmt.Sprint(consumed) != "[r1 r2 r3]" {
		t.Fatalf("consumed %v, want [r1 r2 r3]", consumed)
	}

	// Refill to capacity with fresh records.
	for _, k := range []string{"r4", "r5", "r6"} {
		mustProduce(t, b, k, ts)
	}

	// Crash recovery: a checkpoint taken after r1 rewinds the committed
	// offsets to 2. The live floor drops, the backlog balloons to 5 — but
	// offsets 2 and 3, already consumed once and about to be re-read, are
	// now replay-protected by the high-water mark.
	b.RestoreOffsets("grp", "raw", map[int]int64{0: 2})
	if backlog, _ := b.Backlog("raw"); backlog != 5 {
		t.Fatalf("backlog after rewind = %d, want 5", backlog)
	}

	// Producing over capacity sheds until the backlog fits again: r4, r5 and
	// r6 — the records above the replay floor (4) — are evicted, never the
	// replay-protected offsets 2 and 3 below it. Offset 1, already committed,
	// stays retained too: eviction only ever touches the uncommitted tail.
	mustProduce(t, b, "r7", ts)
	if got := fetchOffsets(t, b, 0, 10); fmt.Sprint(got) != "[1 2 3 7]" {
		t.Fatalf("after post-rewind eviction: offsets %v, want [1 2 3 7]", got)
	}

	// The replay re-reads offsets 2 and 3 byte-identically.
	recs, err := b.Fetch(context.Background(), "raw", 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Value) != "r2" || string(recs[1].Value) != "r3" {
		t.Fatalf("replayed records differ: %v", recs)
	}

	st, _ := b.Stats().Topic("raw")
	if st.Evicted != 4 {
		t.Fatalf("evicted = %d, want 4 (r0 plus the post-rewind r4-r6)", st.Evicted)
	}
}

// TestDropOldestFallsBackToRejectWhenPinned: when every retained record is
// replay-protected, DropOldestUncommitted must reject the incoming record
// (identifiable as ErrTopicFull) rather than loop or break the pin.
func TestDropOldestFallsBackToRejectWhenPinned(t *testing.T) {
	b := boundedTopic(t, 2, DropOldestUncommitted)
	ts := time.Unix(0, 0)
	mustProduce(t, b, "a", ts)
	mustProduce(t, b, "b", ts)
	// Pin above the end of the log: everything retained is replay-protected.
	if err := b.PinReplayFloor("raw", map[int]int64{0: 10}); err != nil {
		t.Fatal(err)
	}
	_, err := b.Produce(context.Background(), "raw", "c", []byte("c"), ts)
	if !errors.Is(err, ErrTopicFull) {
		t.Fatalf("produce with nothing sheddable: err = %v, want ErrTopicFull", err)
	}
	if got := fetchOffsets(t, b, 0, 10); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("pinned records were evicted: offsets %v", got)
	}
}

// TestLimitTopicRoundTripAndUnlimit: Stats reads back the capacity
// LimitTopic set and a produce at capacity follows its policy, and a zero
// capacity restores the unbounded seed behaviour.
func TestLimitTopicRoundTripAndUnlimit(t *testing.T) {
	b := boundedTopic(t, 2, DropNewest)
	if st, _ := b.Stats().Topic("raw"); st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
	ts := time.Unix(0, 0)
	mustProduce(t, b, "a", ts)
	mustProduce(t, b, "b", ts)
	if _, err := b.Produce(context.Background(), "raw", "c", nil, ts); !errors.Is(err, ErrTopicFull) {
		t.Fatalf("produce at capacity under DropNewest: %v, want ErrTopicFull", err)
	}
	if err := b.LimitTopic("raw", TopicLimit{}); err != nil {
		t.Fatal(err)
	}
	if st, _ := b.Stats().Topic("raw"); st.Capacity != 0 {
		t.Fatalf("capacity after unlimit = %d, want 0", st.Capacity)
	}
	for i := 0; i < 10; i++ {
		mustProduce(t, b, fmt.Sprintf("k%d", i), ts)
	}
	if backlog, _ := b.Backlog("raw"); backlog != 12 {
		t.Fatalf("unlimited backlog = %d, want 12", backlog)
	}
}
