package msg

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var base = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func TestCreateTopicAndProduce(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("ais", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("ais", 4); !errors.Is(err, ErrTopicExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := b.Produce(context.Background(), "nope", "k", nil, base); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("produce to unknown topic: %v", err)
	}
	rec, err := b.Produce(context.Background(), "ais", "vessel-1", []byte("hello"), base)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Offset != 0 || rec.Topic != "ais" {
		t.Errorf("unexpected record: %+v", rec)
	}
	n, err := b.Partitions("ais")
	if err != nil || n != 4 {
		t.Errorf("partitions = %d, %v", n, err)
	}
}

func TestKeyAffinity(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 8); err != nil {
		t.Fatal(err)
	}
	// All records with the same key go to the same partition, in order.
	for i := 0; i < 20; i++ {
		if _, err := b.Produce(context.Background(), "t", "vessel-42", []byte{byte(i)}, base.Add(time.Duration(i))); err != nil {
			t.Fatal(err)
		}
	}
	part := HashKey("vessel-42", 8)
	recs, err := b.Fetch(context.Background(), "t", part, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("got %d records in key partition, want 20", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) || r.Value[0] != byte(i) {
			t.Errorf("record %d out of order: %+v", i, r)
		}
	}
}

func TestHashKeyProperties(t *testing.T) {
	f := func(key string, nSeed uint8) bool {
		n := int(nSeed%16) + 1
		p := HashKey(key, n)
		return p >= 0 && p < n && p == HashKey(key, n) // in-range and stable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashKeyIsFNV1a pins the inline hash to hash/fnv's FNV-1a: the
// partition of every key — random bytes, empty, multibyte UTF-8 — equals
// fnv.New32a's sum modulo n.
func TestHashKeyIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []string{"", "a", "vessel-42", "Πειραιάς", "船舶-7", "\xff\xfe\x00", "🚢⚓"}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(70))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 4, 7} {
			want := 0
			if n > 1 {
				want = int(h.Sum32() % uint32(n))
			}
			if got := HashKey(key, n); got != want {
				t.Fatalf("HashKey(%q, %d) = %d, FNV-1a gives %d", key, n, got, want)
			}
		}
	}
}

func TestFetchBlocksUntilProduce(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan []Record, 1)
	go func() {
		recs, err := b.Fetch(context.Background(), "t", 0, 0, 10)
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
		done <- recs
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("fetch returned before produce")
	default:
	}
	if _, err := b.Produce(context.Background(), "t", "k", []byte("x"), base); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "x" {
			t.Errorf("got %+v", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch did not wake after produce")
	}
}

func TestFetchContextCancel(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Fetch(ctx, "t", 0, 0, 1)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch did not observe cancellation")
	}
}

func TestCloseTopicEndsFetch(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce(context.Background(), "t", "k", []byte("x"), base); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseTopic("t"); err != nil {
		t.Fatal(err)
	}
	// Buffered records remain readable.
	recs, err := b.Fetch(context.Background(), "t", 0, 0, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("buffered fetch after close: %v, %d", err, len(recs))
	}
	// Reading past the end returns ErrClosed instead of blocking.
	if _, err := b.Fetch(context.Background(), "t", 0, 1, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("fetch past end of closed topic: %v", err)
	}
	// Producing to a closed topic fails.
	if _, err := b.Produce(context.Background(), "t", "k", []byte("y"), base); !errors.Is(err, ErrClosed) {
		t.Errorf("produce to closed topic: %v", err)
	}
}

func TestFetchErrors(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fetch(context.Background(), "t", 5, 0, 1); !errors.Is(err, ErrBadPartition) {
		t.Errorf("bad partition: %v", err)
	}
	if _, err := b.Fetch(context.Background(), "t", 0, -1, 1); !errors.Is(err, ErrOffsetOutRange) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestConcurrentProducersTotalCount(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	const producers, each = 8, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("key-%d", (p*each+i)%17)
				if _, err := b.Produce(context.Background(), "t", key, []byte("v"), base); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if st, _ := b.Stats().Topic("t"); st.Records != producers*each {
		t.Errorf("total records = %d, want %d", st.Records, producers*each)
	}
}

func TestConsumerGroupSinglePartitionOrder(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := b.Produce(context.Background(), "t", "k", []byte{byte(i)}, base.Add(time.Duration(i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.NewConsumer("g1", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []byte
	for len(got) < 50 {
		recs, err := c.Poll(context.Background(), 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got = append(got, r.Value[0])
			c.Commit(r)
		}
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("record %d = %d, out of order", i, v)
		}
	}
}

func TestConsumerGroupsIndependent(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Produce(context.Background(), "t", "k", []byte{byte(i)}, base); err != nil {
			t.Fatal(err)
		}
	}
	read := func(group string) int {
		c, err := b.NewConsumer(group, "t", "m")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		n := 0
		for n < 10 {
			recs, err := c.Poll(context.Background(), 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				c.Commit(r)
				n++
			}
		}
		return n
	}
	if read("g1") != 10 || read("g2") != 10 {
		t.Error("each group should independently read all records")
	}
}

func TestCommittedOffsetsSurviveReconnect(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Produce(context.Background(), "t", "k", []byte{byte(i)}, base); err != nil {
			t.Fatal(err)
		}
	}
	c1, _ := b.NewConsumer("g", "t", "m1")
	recs, err := c1.Poll(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		c1.Commit(r)
	}
	c1.Close()
	// A new member of the same group resumes after the committed offset.
	c2, _ := b.NewConsumer("g", "t", "m2")
	defer c2.Close()
	recs, err = c2.Poll(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Value[0] != 4 {
		t.Errorf("resumed at value %d, want 4", recs[0].Value[0])
	}
}

func TestConsumerLag(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	c, _ := b.NewConsumer("g", "t", "m")
	defer c.Close()
	for i := 0; i < 6; i++ {
		if _, err := b.Produce(context.Background(), "t", fmt.Sprintf("k%d", i), nil, base); err != nil {
			t.Fatal(err)
		}
	}
	lag, err := c.Lag()
	if err != nil {
		t.Fatal(err)
	}
	if lag != 6 {
		t.Errorf("lag = %d, want 6", lag)
	}
	recs, err := c.Poll(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	lag, _ = c.Lag()
	if lag != 6-int64(len(recs)) {
		t.Errorf("lag after poll = %d, want %d", lag, 6-len(recs))
	}
}

func TestDrainMergesByTime(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	// Produce with interleaved timestamps across partitions.
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i%5)
		if _, err := b.Produce(context.Background(), "t", key, []byte{byte(i)}, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := b.Drain("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Fatalf("drained %d, want 30", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("drain not time-ordered at %d", i)
		}
	}
}

// TestBrokerCloseFailsLookups: broker Close is full shutdown. Producing,
// creating and fetching by name fail with ErrClosed, and an open consumer
// reads what its topic buffered and then reaches end-of-stream.
func TestBrokerCloseFailsLookups(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("beta", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce(context.Background(), "beta", "k", []byte("x"), base); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "beta", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b.Close()
	if _, err := b.Produce(context.Background(), "beta", "k", nil, base); !errors.Is(err, ErrClosed) {
		t.Errorf("produce after close: %v", err)
	}
	if err := b.CreateTopic("gamma", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: %v", err)
	}
	// Unlike CloseTopic (end-of-stream), broker Close is full shutdown:
	// reads by name fail too.
	if _, err := b.Fetch(context.Background(), "beta", 1, 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("fetch after broker close: %v", err)
	}
	if recs, err := c.Poll(context.Background(), 10); err != nil || len(recs) != 1 {
		t.Fatalf("poll of the buffered record after close: %d records, %v", len(recs), err)
	}
	if _, err := c.Poll(context.Background(), 10); !errors.Is(err, ErrClosed) {
		t.Errorf("poll past the buffered records after close: %v, want ErrClosed", err)
	}
}

func TestBrokerVolumeAccounting(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	for i := 0; i < 7; i++ {
		if _, err := b.Produce(context.Background(), "t", fmt.Sprintf("k%d", i), payload, base); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := b.Stats().Topic("t"); st.Bytes != 70 {
		t.Errorf("bytes = %d, want 70", st.Bytes)
	}
}

// TestPartitionsAndOffsetsUnderConcurrentProducers races the broker's
// read-side introspection — Partitions and CommittedOffsets — against
// concurrent producers and a committing consumer. Run under -race (make ci
// does), this pins the locking discipline: Partitions stays constant,
// CommittedOffsets only ever moves forward per partition, and once the
// consumer has drained everything the committed offsets cover every
// produced record.
func TestPartitionsAndOffsetsUnderConcurrentProducers(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	const producers, each = 8, 200
	total := producers * each

	cons, err := b.NewConsumer("g", "t", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Introspection reader: hammers the two accessors while everything else
	// is in flight, checking the invariants on every read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[int]int64{}
		for {
			n, err := b.Partitions("t")
			if err != nil || n != 4 {
				t.Errorf("Partitions = %d, %v; want 4", n, err)
				return
			}
			for p, off := range b.CommittedOffsets("g", "t") {
				if off < last[p] {
					t.Errorf("partition %d committed offset moved backwards: %d -> %d", p, last[p], off)
					return
				}
				last[p] = off
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("key-%d", (p*each+i)%23)
				if _, err := b.Produce(context.Background(), "t", key, []byte("v"), base.Add(time.Duration(i))); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}

	// Consumer drains and commits concurrently with the producers.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	consumed := 0
	for consumed < total {
		recs, err := cons.Poll(ctx, 64)
		if err != nil {
			t.Fatalf("poll after %d records: %v", consumed, err)
		}
		for _, rec := range recs {
			cons.Commit(rec)
		}
		consumed += len(recs)
	}
	close(done)
	wg.Wait()

	var committed int64
	for _, off := range b.CommittedOffsets("g", "t") {
		committed += off
	}
	if committed != int64(total) {
		t.Errorf("committed offsets sum to %d, want %d", committed, total)
	}
	// The group view must agree with the log itself.
	for p, off := range b.CommittedOffsets("g", "t") {
		end, err := b.EndOffset("t", p)
		if err != nil {
			t.Fatal(err)
		}
		if off != end {
			t.Errorf("partition %d: committed %d, log end %d", p, off, end)
		}
	}
}
