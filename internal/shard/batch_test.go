package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func runPlaneBatched(t *testing.T, shards int, in []string) []string {
	t.Helper()
	p := New(Config{Shards: shards, Queue: 64}, func(s string) string { return s }, newCountWorker)
	p.Start()
	defer p.Close()
	var out []string
	for i := 0; i < len(in); {
		batch := len(in) - i
		if batch > 64 {
			batch = 64
		}
		if err := p.SubmitBatch(context.Background(), in[i:i+batch]); err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		for j := 0; j < batch; j++ {
			o, err := p.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			out = append(out, o)
		}
		i += batch
	}
	return out
}

// TestSubmitBatchMatchesSubmit pins the batch plane to the merge contract:
// the same stream through whole SubmitBatch bursts produces exactly the
// output of one-record submits, at every shard count.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	in := inputs(4096)
	want := runPlane(t, 1, in)
	for _, shards := range []int{1, 2, 4, 8} {
		got := runPlaneBatched(t, shards, in)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d outputs, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: output %d = %q, want %q", shards, i, got[i], want[i])
			}
		}
	}
}

// TestSubmitBatchCancelRollsBack: when a batch waiting for credits is
// cancelled, it fails with the saturation error and submits no record and
// keeps no credit, so the plane stays usable for the next batch.
func TestSubmitBatchCancelRollsBack(t *testing.T) {
	p := New(Config{Shards: 1, Queue: 4}, func(s string) string { return s }, newCountWorker)
	p.Start()
	defer p.Close()

	first := []string{"a", "a", "a"}
	if err := p.SubmitBatch(context.Background(), first); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	// 1 of 4 credits left; a 3-record batch must block, then fail on cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.SubmitBatch(ctx, []string{"a", "a", "a"})
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "blocked on credits") {
		t.Fatalf("blocked batch: %v, want the saturation error wrapping deadline exceeded", err)
	}
	if got := p.Pending(); got != 3 {
		t.Fatalf("Pending after cancelled batch = %d, want 3 (first batch only)", got)
	}
	// A one-record batch takes the last credit; the next one waits too.
	if err := p.SubmitBatch(context.Background(), []string{"a"}); err != nil {
		t.Fatalf("last credit: %v", err)
	}
	ctx1, cancel1 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel1()
	if err := p.SubmitBatch(ctx1, []string{"a"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("one-record submit on a saturated lane: %v, want deadline exceeded", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	// All credits must be back: a full-queue batch succeeds immediately.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := p.SubmitBatch(ctx2, []string{"a", "a", "a", "a"}); err != nil {
		t.Fatalf("post-rollback batch: %v (credits leaked?)", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
}

// echoWorker returns its input unchanged and allocates nothing per record.
type echoWorker struct{}

func (echoWorker) Process(in string) string             { return in }
func (echoWorker) Snapshot() (map[string][]byte, error) { return map[string][]byte{}, nil }
func (echoWorker) Restore(ops map[string][]byte) error  { return nil }
func newEchoWorker(int) Worker[string, string]          { return echoWorker{} }

// TestSubmitBatchAllocs pins the amortization contract: a steady-state
// batch submit + drain cycle performs no per-record heap allocations — the
// route/need scratch and the fifo are reused across batches.
func TestSubmitBatchAllocs(t *testing.T) {
	p := New(Config{Shards: 4, Queue: 64}, func(s string) string { return s }, newEchoWorker)
	p.Start()
	defer p.Close()
	batch := inputs(64)
	drain := func() {
		if err := p.SubmitBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		for range batch {
			if _, err := p.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm the scratch slices and the fifo
	allocs := testing.AllocsPerRun(100, drain)
	if allocs > 1 {
		t.Fatalf("SubmitBatch cycle allocates %.1f per %d-record batch, want O(1)", allocs, len(batch))
	}
}

// gateWorker echoes its input; Process blocks on an input that has a gate
// until the test closes it.
type gateWorker struct{ gates map[string]chan struct{} }

func (w gateWorker) Process(in string) string {
	if g, ok := w.gates[in]; ok {
		<-g
	}
	return in
}
func (gateWorker) Snapshot() (map[string][]byte, error) { return map[string][]byte{}, nil }
func (gateWorker) Restore(map[string][]byte) error      { return nil }

// TestNextDrainsBurstWhileLaterBurstBlocks pins the publish at each burst's
// end: with burst B queued behind burst A and the worker stuck on B's first
// record, Next must still return all of A. A worker that publishes only when
// its queue runs dry would hold A's outputs until B finished.
func TestNextDrainsBurstWhileLaterBurstBlocks(t *testing.T) {
	holdA, holdB := make(chan struct{}), make(chan struct{})
	w := gateWorker{gates: map[string]chan struct{}{"a0": holdA, "b0": holdB}}
	p := New(Config{Shards: 1, Queue: 8}, func(s string) string { return s },
		func(int) Worker[string, string] { return w })
	p.Start()
	defer p.Close()
	burstA, burstB := []string{"a0", "a1", "a2"}, []string{"b0", "b1"}
	if err := p.SubmitBatch(context.Background(), burstA); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBatch(context.Background(), burstB); err != nil {
		t.Fatal(err)
	}
	// The worker was held on a0 until B was queued behind A: it now works
	// off A with B waiting, then stops on b0.
	close(holdA)
	drainA := make(chan []string, 1)
	go func() {
		var out []string
		for range burstA {
			o, err := p.Next()
			if err != nil {
				t.Error(err)
				break
			}
			out = append(out, o)
		}
		drainA <- out
	}()
	select {
	case out := <-drainA:
		close(holdB)
		if fmt.Sprint(out) != fmt.Sprint(burstA) {
			t.Fatalf("drained %v, want %v", out, burstA)
		}
	case <-time.After(5 * time.Second):
		close(holdB)
		<-drainA
		t.Fatal("Next waited for burst B before returning burst A")
	}
	for _, want := range burstB {
		if o, err := p.Next(); err != nil || o != want {
			t.Fatalf("Next = %q, %v; want %q", o, err, want)
		}
	}
}

// TestPlaneModelTwoBurstsInFlight checks the lane rings and the credit
// protocol against the serial order on random schedules: shard counts 1–4,
// random burst sizes with up to two bursts in flight, drains that stop
// anywhere (inside a burst or across its end), and barriers whenever the
// plane is drained. Every output must equal the serial worker's, every
// barrier must cut exactly the records drained so far, and a drained plane
// must hold no output, queued input or missing credit.
func TestPlaneModelTwoBurstsInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		shards, maxBurst := 1+rng.Intn(4), 1+rng.Intn(9)
		queue := 2 * maxBurst // two bursts fit even when all route to one lane
		p := New(Config{Shards: shards, Queue: queue}, func(s string) string { return s }, newCountWorker)
		p.Start()
		model := newCountWorker(0)
		var want []string // serial outputs not yet drained
		epoch := uint64(0)
		for step := 0; step < 40; step++ {
			burst := 1 + rng.Intn(maxBurst)
			switch {
			case p.Pending()+burst <= queue && rng.Intn(3) > 0:
				in := make([]string, burst)
				for i := range in {
					in[i] = fmt.Sprintf("k%d", rng.Intn(7))
					want = append(want, model.Process(in[i]))
				}
				if err := p.SubmitBatch(context.Background(), in); err != nil {
					t.Fatalf("trial %d: SubmitBatch: %v", trial, err)
				}
				if len(p.fifo) > 3*queue {
					t.Fatalf("trial %d: drain fifo grew to %d with %d in flight", trial, len(p.fifo), p.Pending())
				}
			case p.Pending() > 0:
				for n := 1 + rng.Intn(p.Pending()); n > 0; n-- {
					o, err := p.Next()
					if err != nil || o != want[0] {
						t.Fatalf("trial %d (shards=%d): Next = %q, %v; want %q", trial, shards, o, err, want[0])
					}
					want = want[1:]
				}
			default:
				epoch++
				blobs, err := p.Barrier(epoch)
				if err != nil {
					t.Fatalf("trial %d: Barrier: %v", trial, err)
				}
				requireCountsCut(t, blobs, model.(*countWorker).counts)
			}
		}
		for p.Pending() > 0 {
			o, err := p.Next()
			if err != nil || o != want[0] {
				t.Fatalf("trial %d: final drain Next = %q, %v; want %q", trial, o, err, want[0])
			}
			want = want[1:]
		}
		for li, l := range p.lanes {
			if l.avail != 0 || len(l.done) != 0 || len(l.in) != 0 || l.credits != queue {
				t.Fatalf("trial %d lane %d after the drain: avail %d, done %d, queued %d, credits %d of %d",
					trial, li, l.avail, len(l.done), len(l.in), l.credits, queue)
			}
			for slot, o := range l.ring {
				if o != "" {
					t.Fatalf("trial %d lane %d: ring slot %d still holds %q", trial, li, slot, o)
				}
			}
			for slot, in := range l.inRing {
				if in != "" {
					t.Fatalf("trial %d lane %d: input ring slot %d still holds %q", trial, li, slot, in)
				}
			}
		}
		p.Close()
	}
}

// requireCountsCut fails unless the per-shard countWorker snapshots of a
// barrier add up to the serial model's counts.
func requireCountsCut(t *testing.T, blobs []map[string][]byte, want map[string]int) {
	t.Helper()
	got := map[string]int{}
	for i, ops := range blobs {
		var counts map[string]int
		if err := json.Unmarshal(ops["counts"], &counts); err != nil {
			t.Fatalf("shard %d snapshot: %v", i, err)
		}
		for k, n := range counts {
			got[k] += n
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("barrier cut %v, serial model has %v", got, want)
	}
}
