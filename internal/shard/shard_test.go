package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datacron/internal/msg"
)

// countWorker is a minimal keyed operator chain: per-key visit counters.
// Its output depends only on per-key state, so any shard count must
// reproduce the single-shard output stream exactly.
type countWorker struct {
	shard  int
	counts map[string]int
}

func newCountWorker(shard int) Worker[string, string] {
	return &countWorker{shard: shard, counts: make(map[string]int)}
}

func (w *countWorker) Process(in string) string {
	w.counts[in]++
	if w.counts[in]%3 == 0 {
		time.Sleep(time.Microsecond) // timing jitter; must not affect order
	}
	return fmt.Sprintf("%s:%d", in, w.counts[in])
}

func (w *countWorker) Snapshot() (map[string][]byte, error) {
	b, err := json.Marshal(w.counts)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"counts": b}, nil
}

func (w *countWorker) Restore(ops map[string][]byte) error {
	b, ok := ops["counts"]
	if !ok {
		return errors.New("missing counts blob")
	}
	w.counts = make(map[string]int)
	return json.Unmarshal(b, &w.counts)
}

func inputs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("vessel-%d", i%17)
	}
	return out
}

// runPlane feeds in through the plane one record per SubmitBatch, in bursts
// of up to 64 records drained after each burst, and returns the outputs.
func runPlane(t *testing.T, shards int, in []string) []string {
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
		for j := 0; j < batch; j++ {
			if err := p.SubmitBatch(context.Background(), []string{in[i+j]}); err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
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

// TestDeterministicMerge pins the core contract: shards=1 and shards=N
// produce identical output streams for the same submit order.
func TestDeterministicMerge(t *testing.T) {
	in := inputs(4096)
	want := runPlane(t, 1, in)
	for _, shards := range []int{2, 3, 4, 8} {
		got := runPlane(t, shards, in)
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

// TestOutputRingWrapsAndReleases drives bursts whose sizes do not divide the
// queue, so every lane's output ring wraps at a different phase: the merged
// stream must still equal the serial one, a burst must come back whole
// however small, and a drained plane must not keep any output alive.
func TestOutputRingWrapsAndReleases(t *testing.T) {
	in := inputs(1000)
	want := runPlane(t, 1, in)
	p := New(Config{Shards: 3, Queue: 5}, func(s string) string { return s }, newCountWorker)
	p.Start()
	defer p.Close()
	var got []string
	for i, burst := 0, 1; i < len(in); i, burst = i+burst, burst%5+1 {
		if burst > len(in)-i {
			burst = len(in) - i
		}
		if err := p.SubmitBatch(context.Background(), in[i:i+burst]); err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		for j := 0; j < burst; j++ {
			o, err := p.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			got = append(got, o)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
	for li, l := range p.lanes {
		if l.avail != 0 || len(l.done) != 0 {
			t.Fatalf("lane %d: %d published outputs unread after the drain", li, l.avail+len(l.done))
		}
		for slot, o := range l.ring {
			if o != "" {
				t.Fatalf("lane %d: ring slot %d still holds %q after the drain", li, slot, o)
			}
		}
	}
}

// TestRouteMatchesBrokerHash pins shard routing to the broker's partition
// hash: same key, same function, same index.
func TestRouteMatchesBrokerHash(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("mover-%d", i)
			if got, want := Route(key, n), msg.HashKey(key, n); got != want {
				t.Fatalf("Route(%q, %d) = %d, msg.HashKey = %d", key, n, got, want)
			}
		}
	}
	if Route("anything", 0) != 0 || Route("anything", -3) != 0 {
		t.Fatal("Route with n<=1 must return 0")
	}
}

// TestBarrierSnapshotRestore drives a plane halfway, takes a coordinated
// snapshot, keeps going, then replays the second half on a fresh plane
// restored from the barrier blobs — outputs must match the uninterrupted
// run exactly.
func TestBarrierSnapshotRestore(t *testing.T) {
	in := inputs(1000)
	full := runPlane(t, 4, in)

	p := New(Config{Shards: 4, Queue: 64}, func(s string) string { return s }, newCountWorker)
	p.Start()
	var firstHalf []string
	for i := 0; i < 500; i += 50 {
		for j := 0; j < 50; j++ {
			p.SubmitBatch(context.Background(), []string{in[i+j]})
		}
		for j := 0; j < 50; j++ {
			o, _ := p.Next()
			firstHalf = append(firstHalf, o)
		}
	}
	blobs, err := p.Barrier(7)
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if len(blobs) != 4 {
		t.Fatalf("Barrier returned %d shard snapshots, want 4", len(blobs))
	}
	p.Close()

	workers := make([]Worker[string, string], 4)
	p2 := New(Config{Shards: 4, Queue: 64}, func(s string) string { return s }, func(i int) Worker[string, string] {
		workers[i] = newCountWorker(i)
		return workers[i]
	})
	for i, w := range workers {
		if err := w.Restore(blobs[i]); err != nil {
			t.Fatalf("Restore shard %d: %v", i, err)
		}
	}
	p2.Start()
	defer p2.Close()
	got := firstHalf
	for i := 500; i < 1000; i += 50 {
		for j := 0; j < 50; j++ {
			p2.SubmitBatch(context.Background(), []string{in[i+j]})
		}
		for j := 0; j < 50; j++ {
			o, _ := p2.Next()
			got = append(got, o)
		}
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("restored run diverges at %d: %q, want %q", i, got[i], full[i])
		}
	}
}

// failOnceWorker wraps countWorker with a Snapshot that fails on the first
// attempt of a chosen shard.
type failOnceWorker struct {
	Worker[string, string]
	fail *bool
}

func (w *failOnceWorker) Snapshot() (map[string][]byte, error) {
	if *w.fail {
		*w.fail = false
		return nil, errors.New("injected snapshot failure")
	}
	return w.Worker.Snapshot()
}

// TestBarrierRetryAfterSnapshotError: a failed barrier must leave the plane
// reusable. The first Barrier fails because shard 0's snapshot errors; the
// acks the healthy shards produced for that epoch must not linger and poison
// the retry with epoch mismatches.
func TestBarrierRetryAfterSnapshotError(t *testing.T) {
	fail := true
	p := New(Config{Shards: 4, Queue: 8}, func(s string) string { return s },
		func(shard int) Worker[string, string] {
			w := newCountWorker(shard)
			if shard == 0 {
				return &failOnceWorker{Worker: w, fail: &fail}
			}
			return w
		})
	p.Start()
	defer p.Close()

	if _, err := p.Barrier(1); err == nil {
		t.Fatal("Barrier with a failing snapshot: err = nil, want injected error")
	}
	blobs, err := p.Barrier(2)
	if err != nil {
		t.Fatalf("Barrier retry after snapshot error: %v", err)
	}
	if len(blobs) != 4 {
		t.Fatalf("Barrier retry returned %d shard snapshots, want 4", len(blobs))
	}
	// The plane must still process and drain records after the failed epoch.
	p.SubmitBatch(context.Background(), []string{"a"})
	if _, err := p.Next(); err != nil {
		t.Fatalf("Next after barrier retry: %v", err)
	}
}

// TestBarrierRequiresDrainedPlane: a barrier while outputs are pending is
// not a consistent cut and must be refused.
func TestBarrierRequiresDrainedPlane(t *testing.T) {
	p := New(Config{Shards: 2, Queue: 8}, func(s string) string { return s }, newCountWorker)
	p.Start()
	defer p.Close()
	p.SubmitBatch(context.Background(), []string{"a"})
	if _, err := p.Barrier(1); !errors.Is(err, ErrPending) {
		t.Fatalf("Barrier with pending output: err = %v, want ErrPending", err)
	}
	if _, err := p.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if _, err := p.Barrier(1); err != nil {
		t.Fatalf("Barrier on drained plane: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	p := New(Config{Shards: 2}, func(s string) string { return s }, newCountWorker)
	if err := p.SubmitBatch(context.Background(), []string{"a"}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("SubmitBatch before Start: %v", err)
	}
	if _, err := p.Barrier(1); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Barrier before Start: %v", err)
	}
	p.Start()
	p.Close()
	p.Close() // idempotent
	if err := p.SubmitBatch(context.Background(), []string{"a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close: %v", err)
	}
}

// TestCloseWithUndrainedOutputs: Close must not deadlock when workers are
// blocked on full output channels.
func TestCloseWithUndrainedOutputs(t *testing.T) {
	p := New(Config{Shards: 2, Queue: 4}, func(s string) string { return s }, newCountWorker)
	p.Start()
	for i := 0; i < 8; i++ {
		p.SubmitBatch(context.Background(), []string{fmt.Sprintf("k%d", i)})
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with undrained outputs")
	}
}

// TestStatsConcurrent reads Stats from another goroutine while the
// coordinator pumps records — exercised under -race in CI.
func TestStatsConcurrent(t *testing.T) {
	p := New(Config{Shards: 4, Queue: 32}, func(s string) string { return s }, newCountWorker)
	p.Start()
	defer p.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range p.Stats() {
				if s.Processed < 0 || s.Queue < 0 {
					panic("negative stats")
				}
			}
		}
	}()
	in := inputs(2000)
	for i := 0; i < len(in); i += 32 {
		for j := i; j < i+32 && j < len(in); j++ {
			p.SubmitBatch(context.Background(), []string{in[j]})
		}
		for j := i; j < i+32 && j < len(in); j++ {
			p.Next()
		}
	}
	close(stop)
	wg.Wait()
	var total int64
	for _, s := range p.Stats() {
		total += s.Processed
	}
	if total != int64(len(in)) {
		t.Fatalf("processed %d records across shards, want %d", total, len(in))
	}
}

func TestMergeSorted(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	got := MergeSorted(less, []int{1, 4, 7}, []int{2, 4, 8}, nil, []int{0, 9})
	want := []int{0, 1, 2, 4, 4, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := MergeSorted(less); len(out) != 0 {
		t.Fatalf("empty merge = %v", out)
	}
}
