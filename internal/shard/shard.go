// Package shard implements the keyed parallel execution plane: one ingest
// stream fanned out to N worker pipelines by hash of the entity (trajectory)
// key, each worker running on its own goroutine over its own operator chain,
// with outputs merged back into a single deterministic stream.
//
// This reproduces, inside one process, the partitioned-by-trajectory
// distribution the datAcron architecture describes for its in-situ
// processing and synopses generation: all per-trajectory state stays
// shard-local because every record of a mover hashes to the same shard,
// while cross-entity operators (link discovery, event recognition, RDF
// sequence numbering) stay on the coordinator.
//
// Determinism contract: the coordinator calls SubmitBatch in the global
// event-time order produced by the broker's Poll merge, and Next returns
// worker outputs in exactly that submit order — so downstream of the merge
// the record sequence is byte-identical whatever the shard count, including
// shards=1. The coordinated snapshot barrier extends the same guarantee to
// checkpoints: an epoch marker is injected into every worker queue, each
// worker snapshots its operator state when the marker reaches it, and
// because barriers run only at drained batch boundaries the collected
// snapshots form a consistent cut.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacron/internal/msg"
	"datacron/internal/obs"
)

// Worker is one shard's operator chain. Process is called only from the
// shard's own goroutine, so implementations need no internal locking for
// per-trajectory state. Snapshot and Restore serve the checkpoint barrier:
// Snapshot runs on the worker goroutine when an epoch marker arrives,
// Restore runs before Start, both single-threaded with respect to Process.
type Worker[I, O any] interface {
	// Process consumes one routed input and returns its output. Every
	// input produces exactly one output (fold summaries into O); the
	// plane relies on this 1:1 discipline to merge deterministically.
	Process(in I) O
	// Snapshot encodes the worker's operator state, one blob per named
	// operator (e.g. "synopses", "flp").
	Snapshot() (map[string][]byte, error)
	// Restore rehydrates the worker from blobs previously produced by
	// Snapshot on the same shard index.
	Restore(ops map[string][]byte) error
}

// Route maps an entity key to a shard index in [0, n): it is msg.HashKey,
// so a record's broker partition and its processing shard derive from the
// same hash of the same key.
func Route(key string, n int) int { return msg.HashKey(key, n) }

// Stats is one shard's progress reading.
type Stats struct {
	Shard     int           // shard index
	Processed int64         // records processed on the worker goroutine
	Queue     int           // records submitted to the shard and not yet processed
	Busy      time.Duration // time the worker spent processing its bursts
	Wait      time.Duration // time the coordinator spent blocked in Next on this shard
}

// ErrNotStarted is returned by SubmitBatch/Next/Barrier before Start.
var ErrNotStarted = errors.New("shard: plane not started")

// ErrClosed is returned by operations on a closed plane.
var ErrClosed = errors.New("shard: plane closed")

// ErrPending is returned by Barrier when submitted records have not been
// drained with Next: a barrier is only a consistent cut at an empty plane.
var ErrPending = errors.New("shard: barrier with undrained outputs pending")

// message is one entry of a lane's input queue: a burst of n records
// waiting in the lane's input ring, or a barrier marker.
type message struct {
	n      int
	marker bool
	epoch  uint64
}

type barrierAck struct {
	epoch uint64
	ops   map[string][]byte
	err   error
}

type lane[I, O any] struct {
	w Worker[I, O]
	// Inputs and outputs both travel through rings, and only their counts
	// through channels. The coordinator writes a burst — a SubmitBatch
	// lane share — into inRing and sends its size on in, one send per
	// burst; the worker writes its outputs slot after slot into ring and
	// publishes them with one count on done at the end of the burst, so
	// the coordinator is woken once per burst it submitted, not once per
	// record, and never waits on a later burst to drain an earlier one. A
	// wake-up of a parked goroutine on another thread costs tens to
	// hundreds of microseconds and varies with the host; one per record
	// made sharded throughput depend on how often the merge happened to
	// catch up with a worker. At most Queue records are in flight per
	// lane (the credit pool), so neither ring overwrites an unread slot and
	// neither channel fills. inWr, rd and avail belong to the coordinator.
	inRing []I
	inWr   int // next inRing slot the coordinator writes
	in     chan message
	ring   []O
	done   chan int
	rd     int // next ring slot Next reads
	avail  int // published slots Next has not read yet
	ack    chan barrierAck
	// credits implements per-lane flow control: a submit takes one credit
	// per record and Next returns it when the record's output is drained.
	// The pool starts at the lane's queue capacity, so a slow shard exerts
	// backpressure on the coordinator instead of growing an unbounded
	// queue. Only the coordinator reads or changes it.
	credits   int
	submitted atomic.Int64 // records submitted to the lane
	processed atomic.Int64 // records processed on the worker goroutine
	busy      atomic.Int64 // ns the worker spent in bursts, two clock reads a burst
	wait      atomic.Int64 // ns Next spent blocked on the lane, read only when it blocks
}

// Plane coordinates N shard workers. It is operated by a single coordinator
// goroutine: SubmitBatch, Next, Barrier and Close are not safe for concurrent
// use with each other (Stats is safe from anywhere). At most Queue records
// per shard may be in flight (submitted, not yet drained with Next); a
// coordinator can keep several bursts within that bound, submitting burst
// k+1 before it drains burst k so the workers process k+1 while it applies
// k.
type Plane[I, O any] struct {
	key     func(I) string
	lanes   []*lane[I, O]
	clock   obs.Clock // times the lanes' busy and wait
	wg      sync.WaitGroup
	fifo    []int // shard index per undrained submit, in submit order
	head    int   // next fifo entry to drain
	started bool
	closed  bool

	// SubmitBatch scratch, reused across batches so a steady-state batch
	// submit performs no per-record allocations. Coordinator-only, like the
	// fifo.
	routeScratch []int // per-record lane index for the current batch
	needScratch  []int // per-lane records in the current batch
}

// Config sizes a Plane.
type Config struct {
	Shards int // number of workers; values < 1 are treated as 1
	// Queue is the per-shard input and output ring capacity (default 512).
	// It is also the size of each shard's submit-credit pool: at most Queue
	// records per shard may be in flight (queued or processing, output not
	// yet drained) before SubmitBatch blocks.
	Queue int
	// Metrics supplies the clock (its Clock: the wall clock when nil) that
	// times each shard's Stats.Busy and Stats.Wait.
	Metrics *obs.Registry
}

// New builds a plane with cfg.Shards workers constructed by build(shard).
// Workers are created immediately (so state can be restored into them) but
// their goroutines only run after Start.
func New[I, O any](cfg Config, key func(I) string, build func(shard int) Worker[I, O]) *Plane[I, O] {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Queue < 1 {
		cfg.Queue = 512
	}
	p := &Plane[I, O]{key: key, clock: cfg.Metrics.Clock(), lanes: make([]*lane[I, O], cfg.Shards)}
	for i := range p.lanes {
		// Lane buffers share one auditable bound: Config.Queue, clamped at
		// construction, is also the size of the credit pool that gates SubmitBatch.
		p.lanes[i] = &lane[I, O]{
			w:       build(i),
			inRing:  make([]I, cfg.Queue),
			in:      make(chan message, cfg.Queue), //lint:ignore boundedchan capacity is Config.Queue, clamped in New and matched by the credit pool
			ring:    make([]O, cfg.Queue),
			done:    make(chan int, cfg.Queue), //lint:ignore boundedchan capacity is Config.Queue, clamped in New and matched by the credit pool
			ack:     make(chan barrierAck, 1),
			credits: cfg.Queue,
		}
	}
	return p
}

// Start launches the worker goroutines. Must be called exactly once, after
// any Restore and before the first SubmitBatch.
func (p *Plane[I, O]) Start() {
	if p.started {
		return
	}
	p.started = true
	for _, l := range p.lanes {
		p.wg.Add(1)
		go p.run(l)
	}
}

func (p *Plane[I, O]) run(l *lane[I, O]) {
	defer p.wg.Done()
	var zero I
	i := 0 // a record's input and output slots are the same ring index
	for m := range l.in {
		if m.marker {
			// A barrier needs a drained plane, so nothing is unpublished here.
			ops, err := l.w.Snapshot()
			l.ack <- barrierAck{epoch: m.epoch, ops: ops, err: err}
			continue
		}
		start := p.clock.Now()
		for k := 0; k < m.n; k++ {
			in := l.inRing[i]
			l.inRing[i] = zero // the ring must not keep the input alive
			l.ring[i] = l.w.Process(in)
			if i++; i == len(l.ring) {
				i = 0
			}
		}
		// Publish the burst, so the coordinator can drain it while the
		// worker starts on the next one.
		l.busy.Add(int64(p.clock.Now().Sub(start)))
		l.processed.Add(int64(m.n))
		l.done <- m.n
	}
}

// SubmitBatch routes a whole poll batch to the shard queues: it routes every
// record, takes each lane's credits for its share of the batch at once,
// writes the records into the lanes' input rings in batch order and sends
// each lane its share as one burst. Outputs must be drained in submit order
// with Next, so a stream's output is the same however it is cut into
// batches.
//
// Credit acquisition is all-or-nothing: when a lane lacks the credits for
// its share, SubmitBatch waits until ctx is cancelled and fails with no
// credit taken and no record of the batch submitted, so the coordinator can
// retry or abort the batch as a unit. Credits come back only through Next,
// on this same coordinator goroutine, so a saturated lane tells the
// coordinator to drain before it submits more. The credits a lane's share
// needs, plus those its undrained records still hold, must not exceed
// Queue (the credit pool size). The recovery loop keeps at most two poll
// batches in flight against a queue of twice the poll batch.
//
// The worker publishes a lane's outputs when it finishes the lane's share,
// so Next can drain this batch while a later batch is still being processed.
func (p *Plane[I, O]) SubmitBatch(ctx context.Context, ins []I) error {
	if !p.started {
		return ErrNotStarted
	}
	if p.closed {
		return ErrClosed
	}
	if len(ins) == 0 {
		return nil
	}
	n := len(p.lanes)
	if cap(p.routeScratch) < len(ins) {
		p.routeScratch = make([]int, len(ins))
	}
	routes := p.routeScratch[:len(ins)]
	if p.needScratch == nil {
		p.needScratch = make([]int, n)
	}
	need := p.needScratch
	clear(need)
	for i := range ins {
		r := Route(p.key(ins[i]), n)
		routes[i] = r
		need[r]++
	}
	for li, k := range need {
		if k > 0 && p.lanes[li].credits < k {
			// Nothing else can return credits while the coordinator waits.
			<-ctx.Done()
			return submitBlockedErr(li, ctx.Err())
		}
	}
	for li, k := range need {
		p.lanes[li].credits -= k
	}
	for i := range ins {
		p.lanes[routes[i]].write(ins[i])
	}
	for li, k := range need {
		if k > 0 {
			p.lanes[li].send(k)
		}
	}
	// routes is exactly the per-submit lane sequence the drain order needs.
	p.enqueue(routes...)
	return nil
}

// write puts one input into the lane's input ring; send hands the worker
// the last n written as one burst.
func (l *lane[I, O]) write(in I) {
	l.inRing[l.inWr] = in
	if l.inWr++; l.inWr == len(l.inRing) {
		l.inWr = 0
	}
}

func (l *lane[I, O]) send(n int) {
	l.submitted.Add(int64(n))
	l.in <- message{n: n}
}

// enqueue appends submitted records' lanes to the drain-order fifo. Next
// resets the fifo only when it drains the plane empty, which a coordinator
// keeping a later burst in flight never does, so once the drained head is at
// least as long as the undrained tail the tail slides to the front: the fifo
// stays within twice the records in flight, at an amortized O(1) copy per
// record.
func (p *Plane[I, O]) enqueue(lanes ...int) {
	if p.head > 0 && p.head >= len(p.fifo)-p.head {
		n := copy(p.fifo, p.fifo[p.head:])
		p.fifo, p.head = p.fifo[:n], 0
	}
	//lint:ignore boundedchan bounded by the credit protocol: at most Shards x Queue submissions are in flight before Next drains one
	p.fifo = append(p.fifo, lanes...)
}

// submitBlockedErr builds the cancelled-while-saturated error outside the
// submit loops, keeping fmt off the hot path.
func submitBlockedErr(shard int, err error) error {
	return fmt.Errorf("shard: submit to shard %d blocked on credits: %w", shard, err)
}

// Next blocks for and returns the output of the oldest undrained submitted
// record.
// Because each worker's outputs arrive in its input order and Next follows
// the global submit order, the merged stream is identical to processing
// every record serially. A worker publishes its outputs at the end of each
// burst, so Next blocks at most once per lane per submitted burst and never
// waits on a burst submitted after the one it drains.
func (p *Plane[I, O]) Next() (O, error) {
	var zero O
	if !p.started {
		return zero, ErrNotStarted
	}
	if p.head >= len(p.fifo) {
		return zero, errors.New("shard: Next without a pending submit")
	}
	i := p.fifo[p.head]
	p.head++
	if p.head == len(p.fifo) {
		p.fifo = p.fifo[:0]
		p.head = 0
	}
	l := p.lanes[i]
	if l.avail == 0 {
		select {
		case l.avail = <-l.done:
		default:
			start := p.clock.Now()
			l.avail = <-l.done
			l.wait.Add(int64(p.clock.Now().Sub(start)))
		}
	}
	out := l.ring[l.rd]
	l.ring[l.rd] = zero // the ring must not keep the output alive
	if l.rd++; l.rd == len(l.ring) {
		l.rd = 0
	}
	l.avail--
	// The record left the plane: return its submit credit.
	l.credits++
	return out, nil
}

// Pending returns the number of submitted records not yet drained by Next.
func (p *Plane[I, O]) Pending() int { return len(p.fifo) - p.head }

// Barrier performs a coordinated snapshot at the given epoch: it injects a
// marker into every shard's queue, waits for each worker to snapshot when
// the marker reaches it, and returns the per-shard operator blobs indexed
// by shard. It requires a drained plane (Pending() == 0), which makes the
// collected snapshots a consistent cut: every worker has processed exactly
// the records submitted before the barrier, and none after.
func (p *Plane[I, O]) Barrier(epoch uint64) ([]map[string][]byte, error) {
	if !p.started {
		return nil, ErrNotStarted
	}
	if p.closed {
		return nil, ErrClosed
	}
	if p.Pending() != 0 {
		return nil, fmt.Errorf("%w (%d)", ErrPending, p.Pending())
	}
	for _, l := range p.lanes {
		l.in <- message{marker: true, epoch: epoch}
	}
	// Every lane got a marker, so every lane will ack: drain them all before
	// evaluating any of them. Returning on the first bad ack would strand the
	// later lanes' acks in their buffered channels, and the stale acks would
	// surface as epoch mismatches on every subsequent barrier.
	acks := make([]barrierAck, len(p.lanes))
	for i, l := range p.lanes {
		acks[i] = <-l.ack
	}
	out := make([]map[string][]byte, len(p.lanes))
	for i, a := range acks {
		if a.err != nil {
			return nil, snapshotErr(i, a.err)
		}
		if a.epoch != epoch {
			return nil, epochMismatchErr(i, epoch, a.epoch)
		}
		out[i] = a.ops
	}
	return out, nil
}

// Cold-path error constructors for Barrier's ack loop, kept out of the loop
// body so the hotalloc analyzer sees it allocation-free.
func snapshotErr(shard int, err error) error {
	return fmt.Errorf("shard %d: snapshot: %w", shard, err)
}

func epochMismatchErr(shard int, marker, ack uint64) error {
	return fmt.Errorf("shard %d: barrier epoch mismatch: marker %d, ack %d", shard, marker, ack)
}

// Close shuts the worker goroutines down and waits for them to exit. After
// Close the workers are again safe for single-threaded access by the caller
// that built them (the coordinator's final flush). Undrained outputs are
// discarded. Idempotent.
func (p *Plane[I, O]) Close() {
	if !p.started || p.closed {
		p.closed = true
		return
	}
	p.closed = true
	// Workers never block on their way out: the ring and done hold a full
	// credit pool of outputs, so closing the inputs is all it takes.
	for _, l := range p.lanes {
		close(l.in)
	}
	p.wg.Wait()
	p.fifo, p.head = nil, 0
}

// Stats reports per-shard progress. Safe to call from any goroutine while
// the plane runs; the admin /statz view and the health watchdog read it.
func (p *Plane[I, O]) Stats() []Stats {
	out := make([]Stats, len(p.lanes))
	for i, l := range p.lanes {
		// processed is read first: submitted only grows, so the difference
		// is never negative.
		processed := l.processed.Load()
		out[i] = Stats{Shard: i, Processed: processed, Queue: int(l.submitted.Load() - processed),
			Busy: time.Duration(l.busy.Load()), Wait: time.Duration(l.wait.Load())}
	}
	return out
}
