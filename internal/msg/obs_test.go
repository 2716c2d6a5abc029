package msg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datacron/internal/obs"
)

// TestInstrumentConcurrentCreateTopic pins the lock discipline fix: topic
// metric handles are built outside the broker mutex, with an optimistic
// retry when the registry is swapped mid-create. Whatever the interleaving,
// every topic must end up instrumented — either by its own CreateTopic
// observing the registry, or by Instrument back-filling it.
func TestInstrumentConcurrentCreateTopic(t *testing.T) {
	b := NewBroker()
	reg := obs.NewRegistry(obs.NewManualClock(time.Unix(0, 0).UTC()))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.CreateTopic(fmt.Sprintf("t%d", i), 1); err != nil {
				t.Errorf("CreateTopic t%d: %v", i, err)
			}
		}(i)
	}
	b.Instrument(reg)
	wg.Wait()
	b.Instrument(reg) // back-fill topics committed before the registry attach

	for i := 0; i < 16; i++ {
		rejectOne(t, b, fmt.Sprintf("t%d", i))
	}
	s := reg.Snapshot()
	for i := 0; i < 16; i++ {
		if got := s.Counter(fmt.Sprintf("msg.rejected.t%d", i)); got != 1 {
			t.Errorf("msg.rejected.t%d = %d, want 1 (topic missed instrumentation)", i, got)
		}
	}
}

// rejectOne caps the topic's backlog at one record under DropNewest and
// produces two records to it, so an instrumented topic counts one rejection.
func rejectOne(t *testing.T, b *Broker, topic string) {
	t.Helper()
	if err := b.LimitTopic(topic, TopicLimit{Capacity: 1, Policy: DropNewest}); err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(100, 0).UTC()
	if _, err := b.Produce(context.Background(), topic, "k", []byte("x"), ts); err != nil {
		t.Fatalf("Produce %s: %v", topic, err)
	}
	if _, err := b.Produce(context.Background(), topic, "k", []byte("x"), ts); !errors.Is(err, ErrTopicFull) {
		t.Fatalf("Produce %s at capacity: %v, want ErrTopicFull", topic, err)
	}
}

func TestBrokerInstrumentation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("pre", 1); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(obs.NewManualClock(time.Unix(0, 0).UTC()))
	b.Instrument(reg)
	if err := b.CreateTopic("post", 2); err != nil {
		t.Fatal(err)
	}

	rejectOne(t, b, "pre")
	rejectOne(t, b, "post")

	s := reg.Snapshot()
	if got := s.Counter("msg.rejected.pre"); got != 1 {
		t.Fatalf("msg.rejected.pre = %d, want 1 (pre-existing topics must be instrumented)", got)
	}
	if got := s.Counter("msg.rejected.post"); got != 1 {
		t.Fatalf("msg.rejected.post = %d, want 1 (topics created after Instrument)", got)
	}
}

func TestConsumerInstrumentation(t *testing.T) {
	b := NewBroker()
	clk := obs.NewManualClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistry(clk)
	b.Instrument(reg)
	if err := b.CreateTopic("raw", 1); err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(100, 0).UTC()
	for i := 0; i < 4; i++ {
		if _, err := b.Produce(context.Background(), "raw", "k", []byte{byte(i)}, ts.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	c, err := b.NewConsumer("g", "raw", "m0")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("polled %d records, want 3", len(recs))
	}

	s := reg.Snapshot()
	if lag, ok := s.Gauge("msg.lag.g/raw"); !ok || lag != 1 {
		t.Fatalf("msg.lag.g/raw = %v, ok=%v, want 1", lag, ok)
	}

	cs := c.Stats()
	if cs.Polled != 3 || cs.Lag != 1 || cs.Group != "g" || cs.Topic != "raw" {
		t.Fatalf("consumer stats = %+v", cs)
	}

	// Uninstrumented brokers still track Polled in Stats.
	b2 := NewBroker()
	if err := b2.CreateTopic("raw", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Produce(context.Background(), "raw", "k", []byte("x"), ts); err != nil {
		t.Fatal(err)
	}
	c2, err := b2.NewConsumer("g", "raw", "m0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Poll(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().Polled; got != 1 {
		t.Fatalf("uninstrumented Polled = %d, want 1", got)
	}
}
