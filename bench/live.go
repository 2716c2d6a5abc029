package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datacron/internal/core"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/synopses"
)

// tick is the generator's period: it offers rate/1000 records every
// millisecond on a fixed schedule.
const tick = time.Millisecond

// liveWarmup is the head of the schedule (or a tenth of it, if shorter) whose
// synopsis records carry no lag sample. The run loop builds its
// link-discovery masks before its first poll, so the first records queue
// behind a one-off set-up that a pipeline started ahead of its feed never
// shows; liveStats.startupMs reports it on its own.
const liveWarmup = 500 * time.Millisecond

// drainGrace is how long after the last tick the pipeline may take to drain
// before the records still queued count as failed.
const drainGrace = time.Second

// triggers maps every synopsis record the pipeline will publish back to the
// raw record that caused it. Synopses are published keyed by mover, and the
// raw and synopses topics share the key→partition hash, so a mover's k-th
// synopsis record is its k-th critical point whatever the arrival order.
type triggers struct {
	// byMover[id][k] is the input index of the report that made the
	// mover's k-th critical point.
	byMover map[string][]int32
	// flush[id] is the number of closing points the mover gets when the
	// stream ends; they have no triggering record and carry no lag.
	flush     map[string]int
	triggered int
}

// buildTriggers runs a standalone synopses generator over the input, in
// offer order, and records which report emitted each critical point.
func buildTriggers(in input) *triggers {
	t := &triggers{byMover: map[string][]int32{}, flush: map[string]int{}}
	g := synopses.NewGenerator(in.cfg.Synopses)
	for i, r := range in.reports {
		for range g.Process(r) {
			t.byMover[r.ID] = append(t.byMover[r.ID], int32(i))
			t.triggered++
		}
	}
	for _, cp := range g.Flush() {
		t.flush[cp.ID]++
	}
	return t
}

// liveStats is what the open-loop phase measured.
type liveStats struct {
	lagMs      []float64 // due→arrival of every triggered synopsis record after the warm-up, sorted
	warmupLags int       // triggered synopsis records inside the warm-up, not sampled
	startupMs  float64   // worst lag inside the warm-up: how long the pipeline took to come up
	genLateMs  []float64 // how late each tick was sent, sorted
	backlogMax int64     // deepest raw-topic backlog sampled
	notDrained int64     // records still queued drainGrace after the last tick
	uncovered  int       // synopsis records the trigger table could not place
	rawIn      int64
	out        digests
}

// arrival is one fetch of the synopses tap: the keys it returned, in offset
// order, and when they arrived.
type arrival struct {
	at   time.Time
	keys []string
}

// encodeChunk encodes reports into one fresh arena, as core's Ingest does per
// chunk, and fills recs[:len(chunk)] with the keyed records over it. The
// broker keeps the values, so the arena is never reused.
func encodeChunk(chunk []mobility.Report, recs []msg.Record) []msg.Record {
	size := 0
	for i := range chunk {
		size += chunk[i].BinarySize()
	}
	arena := make([]byte, 0, size)
	recs = recs[:len(chunk)]
	for i := range chunk {
		start := len(arena)
		arena = chunk[i].AppendBinary(arena)
		recs[i] = msg.Record{Key: chunk[i].ID, Value: arena[start:len(arena):len(arena)], Time: chunk[i].Time}
	}
	return recs
}

// encodeTicks pre-encodes the input into one broker batch per tick, so the
// generator does nothing on its schedule but ProduceBatch.
func encodeTicks(in input, perTick int) [][]msg.Record {
	ticks := make([][]msg.Record, 0, (len(in.reports)+perTick-1)/perTick)
	for base := 0; base < len(in.reports); base += perTick {
		chunk := in.reports[base:min(base+perTick, len(in.reports))]
		ticks = append(ticks, encodeChunk(chunk, make([]msg.Record, len(chunk))))
	}
	return ticks
}

// runLive is the open-loop phase: a generator offers the input to the raw
// topic at a fixed rate while the real-time layer consumes it at shards=2,
// and one tap per synopses partition stamps each record on arrival. Lag runs
// from when the triggering raw record was due, not from when it was sent, so
// a stall charges every record scheduled behind it.
func runLive(in input, spec *recoverySpec, rate int, trig *triggers, outDir string) (liveStats, error) {
	var st liveStats
	perTick := max(rate/int(time.Second/tick), 1)
	ticks := encodeTicks(in, perTick)
	p, err := newPipeline(in, 2, false)
	if err != nil {
		return st, err
	}
	var rc *core.RecoveryConfig
	if spec != nil {
		var cleanup func()
		rc, cleanup, err = recoveryConfig(spec, outDir, false)
		if err != nil {
			return st, err
		}
		defer cleanup()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	parts, err := p.Broker.Partitions(core.TopicSynopses)
	if err != nil {
		return st, err
	}
	// One tap per partition, each blocked in Fetch until its partition has
	// something: a single msg.Consumer would wait on the lowest partition
	// while the others fill, and that wait would be charged to the pipeline.
	arrivals := make([][]arrival, parts)
	tapErr := make([]error, parts)
	var taps sync.WaitGroup
	for part := 0; part < parts; part++ {
		taps.Add(1)
		go func(part int) {
			defer taps.Done()
			var off int64
			for {
				recs, err := p.Broker.Fetch(ctx, core.TopicSynopses, part, off, 4096)
				if err != nil {
					if !errors.Is(err, msg.ErrClosed) {
						tapErr[part] = err
					}
					return
				}
				a := arrival{at: time.Now(), keys: make([]string, len(recs))}
				for i := range recs {
					a.keys[i] = recs[i].Key
				}
				arrivals[part] = append(arrivals[part], a)
				off = recs[len(recs)-1].Offset + 1
			}
		}(part)
	}

	type runResult struct {
		sum core.Summary
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		sum, _, err := runToEnd(p, rc)
		done <- runResult{sum, err}
	}()

	// abort stops the run and the taps when the generator cannot go on.
	abort := func(err error) (liveStats, error) {
		cancel()
		<-done
		taps.Wait()
		return st, err
	}

	// The generator. The schedule is fixed before the first send and never
	// moves: a late tick is sent at once and the next is still due on time.
	late := make([]float64, len(ticks))
	t0 := time.Now().Add(10 * time.Millisecond)
	for i, batch := range ticks {
		due := t0.Add(time.Duration(i) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / float64(time.Millisecond)
		if _, err := p.Broker.ProduceBatch(ctx, core.TopicRaw, batch); err != nil {
			return abort(fmt.Errorf("generator: tick %d: %w", i, err))
		}
		if i%16 == 0 {
			if b, err := p.Broker.Backlog(core.TopicRaw); err == nil && b > st.backlogMax {
				st.backlogMax = b
			}
		}
	}
	if err := p.Broker.CloseTopic(core.TopicRaw); err != nil {
		return abort(err)
	}
	lastDue := t0.Add(time.Duration(len(ticks)-1) * tick)

	var res runResult
	select {
	case res = <-done:
	case <-time.After(time.Until(lastDue.Add(drainGrace))):
		if b, err := p.Broker.Backlog(core.TopicRaw); err == nil {
			st.notDrained = b
		}
		res = <-done
	}
	// The run closed the output topics on its way out, which ends the taps.
	if res.err != nil {
		cancel()
	}
	taps.Wait()
	if res.err != nil {
		return st, res.err
	}
	for _, err := range tapErr {
		if err != nil {
			return st, fmt.Errorf("synopses tap: %w", err)
		}
	}
	st.rawIn = res.sum.RawIn

	warmup := min(liveWarmup, time.Duration(len(ticks))*tick/10)
	seen := map[string]int{}
	for _, part := range arrivals {
		for _, a := range part {
			for _, key := range a.keys {
				k := seen[key]
				seen[key] = k + 1
				trigs := trig.byMover[key]
				if k >= len(trigs) {
					continue // a closing point, published after the stream ended
				}
				sinceStart := time.Duration(int(trigs[k])/perTick) * tick
				lag := float64(a.at.Sub(t0.Add(sinceStart))) / float64(time.Millisecond)
				if sinceStart < warmup {
					st.warmupLags++
					st.startupMs = max(st.startupMs, lag)
					continue
				}
				st.lagMs = append(st.lagMs, lag)
			}
		}
	}
	for key, n := range seen {
		if n != len(trig.byMover[key])+trig.flush[key] {
			st.uncovered++
		}
	}
	for key := range trig.byMover {
		if _, ok := seen[key]; !ok {
			st.uncovered++
		}
	}
	sort.Float64s(st.lagMs)
	sort.Float64s(late)
	st.genLateMs = late
	st.out, err = digestOutputs(p.Broker)
	return st, err
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
