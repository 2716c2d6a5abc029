package msg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// TestLogEntryLayout pins the sizes the segment constant is derived from: a
// stored entry is 72 B, and a segment stays a small object.
func TestLogEntryLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes below are for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got != 72 {
		t.Fatalf("entry is %d B, want 72", got)
	}
	if got := unsafe.Sizeof(segment{}); got > 32<<10 {
		t.Fatalf("segment is %d B, above the 32 KiB small-object limit", got)
	}
}

// TestTruncateReleasesValues: a value cut off by Truncate must become
// unreachable at once — both one inside the segment the cut falls into and
// one in a segment past the cut — rather than staying live in the log's
// backing memory until a later append overwrites its slot.
func TestTruncateReleasesValues(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("out", 1); err != nil {
		t.Fatal(err)
	}
	collected := make(chan int, 2)
	produce := func(i int) {
		v := new([64]byte)
		if i == 310 || i == 550 {
			runtime.SetFinalizer(v, func(*[64]byte) { collected <- i })
		}
		if _, err := b.Produce(context.Background(), "out", "k", v[:], time.Unix(int64(i), 0).UTC()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		produce(i)
	}
	if err := b.Truncate("out", 0, 300); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for tries := 0; len(seen) < 2 && tries < 50; tries++ {
		runtime.GC()
		select {
		case i := <-collected:
			seen[i] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if len(seen) != 2 {
		t.Fatalf("truncated values collected: %v, want records 310 and 550", seen)
	}
	if st, _ := b.Stats().Topic("out"); st.Records != 300 {
		t.Fatalf("retained %d records after truncate, want 300", st.Records)
	}
	runtime.KeepAlive(b)
}

// TestProduceBatchLongLogAllocs is the growth gate: producing a long run into
// one partition allocates about one stored entry per record — a fresh
// segment per segSize records — and never re-copies what the log already
// holds. A log that regrows one slice pays several entries per record.
func TestProduceBatchLongLogAllocs(t *testing.T) {
	const records = 2 << 20
	b := NewBroker()
	if err := b.CreateTopic("raw", 1); err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, segSize)
	value := []byte("v")
	ts := time.Unix(0, 0).UTC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < records; n += len(batch) {
		for i := range batch {
			batch[i] = Record{Key: "k", Value: value, Time: ts}
		}
		if _, err := b.ProduceBatch(context.Background(), "raw", batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records
	if limit := 1.1 * float64(unsafe.Sizeof(entry{})); perRecord > limit {
		t.Fatalf("ProduceBatch allocated %.1f B/record over %d records, want <= %.1f", perRecord, records, limit)
	}
	if st, _ := b.Stats().Topic("raw"); st.Records != records {
		t.Fatalf("retained %d records, want %d", st.Records, records)
	}
}

// BenchmarkProduceBatchLongLog produces 256-record batches into one
// partition whose log grows to 1 Mi records before it is started afresh; one
// op is one record, so B/op and ns/op read per record.
func BenchmarkProduceBatchLongLog(b *testing.B) {
	const longLog = 1 << 20
	batch := make([]Record, segSize)
	value := []byte("v")
	ts := time.Unix(0, 0).UTC()
	var br *Broker
	held := longLog
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(batch) {
		if held >= longLog {
			b.StopTimer()
			br = NewBroker()
			if err := br.CreateTopic("raw", 1); err != nil {
				b.Fatal(err)
			}
			held = 0
			b.StartTimer()
		}
		batch = batch[:min(segSize, b.N-n)]
		for i := range batch {
			batch[i] = Record{Key: "k", Value: value, Time: ts}
		}
		if _, err := br.ProduceBatch(context.Background(), "raw", batch); err != nil {
			b.Fatal(err)
		}
		held += len(batch)
	}
}

// modelPart is the naive reference for one partition: every retained record
// in one plain slice, with the broker's floors and counters beside it.
type modelPart struct {
	recs        []Record
	next        int64
	floor       int64
	replayFloor int64
	pinned      bool
	evicted     int64
	rejected    int64
}

// first returns the index of the first retained record at or past offset.
func (mp *modelPart) first(offset int64) int {
	return sort.Search(len(mp.recs), func(i int) bool { return mp.recs[i].Offset >= offset })
}

func sameRecord(a, b Record) bool {
	return a.Topic == b.Topic && a.Partition == b.Partition && a.Offset == b.Offset &&
		a.Key == b.Key && bytes.Equal(a.Value, b.Value) && a.Time == b.Time
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (mp *modelPart) backlog() int { return len(mp.recs) - mp.first(mp.floor) }

// logModel mirrors one topic and two consumer groups of one consumer each,
// so the commit floor is a minimum over groups and each consumer reads every
// partition.
type logModel struct {
	parts     []*modelPart
	cap       int
	policy    OverloadPolicy
	committed [2]map[int]int64
	positions [2]map[int]int64
}

func (m *logModel) admit(mp *modelPart) bool {
	for m.cap > 0 && mp.backlog() >= m.cap {
		if m.policy == DropOldestUncommitted {
			bound := mp.floor
			if mp.pinned && mp.replayFloor > bound {
				bound = mp.replayFloor
			}
			if i := mp.first(bound); i < len(mp.recs) {
				mp.recs = append(mp.recs[:i:i], mp.recs[i+1:]...)
				mp.evicted++
				continue
			}
		}
		mp.rejected++
		return false
	}
	return true
}

func (m *logModel) produce(p int, key string, value []byte, ts time.Time) (Record, bool) {
	mp := m.parts[p]
	if !m.admit(mp) {
		return Record{}, false
	}
	rec := Record{Topic: "log", Partition: p, Offset: mp.next, Key: key, Value: value, Time: ts}
	mp.next++
	mp.recs = append(mp.recs, rec)
	return rec, true
}

func (m *logModel) noteCommit(p int) {
	mp := m.parts[p]
	floor := min(m.committed[0][p], m.committed[1][p])
	if floor != mp.floor {
		mp.floor = floor
		if mp.pinned && floor > mp.replayFloor {
			mp.replayFloor = floor
		}
	}
}

// fetch returns up to max retained records at or past offset.
func (m *logModel) fetch(p int, offset int64, lim int) []Record {
	mp := m.parts[p]
	i := mp.first(offset)
	return append([]Record(nil), mp.recs[i:min(i+lim, len(mp.recs))]...)
}

// TestPartitionLogModel drives the broker with random operation sequences —
// Produce, ProduceBatch of up to three segments, Commit, RestoreOffsets,
// SeekTo, TryPollInto, Truncate at, inside and past segment edges, limit changes
// that make DropOldestUncommitted shed from the middle, PinReplayFloor, and
// Fetch spanning segments — against a naive slice model, and after
// every step compares offsets, the retained records, Backlog and Stats.
func TestPartitionLogModel(t *testing.T) {
	seeds, steps := 12, 300
	if testing.Short() {
		seeds = 3
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runLogModel(t, rand.New(rand.NewSource(int64(seed))), steps)
		})
	}
}

func runLogModel(t *testing.T, rng *rand.Rand, steps int) {
	const nParts = 2
	b := NewBroker()
	if err := b.CreateTopic("log", nParts); err != nil {
		t.Fatal(err)
	}
	m := &logModel{parts: make([]*modelPart, nParts)}
	for i := range m.parts {
		m.parts[i] = &modelPart{}
	}
	var cons [2]*Consumer
	// Each consumer polls into one reused buffer, so a poll overwrites the
	// records an earlier poll returned, as the run loop's polls do.
	var polled [2][]Record
	for g := range cons {
		c, err := b.NewConsumer("g"+strconv.Itoa(g), "log", "m")
		if err != nil {
			t.Fatal(err)
		}
		cons[g] = c
		m.committed[g] = map[int]int64{}
		m.positions[g] = map[int]int64{}
	}
	// A cancelled context makes Fetch return at once when nothing is there.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()

	newRecord := func() (string, []byte, time.Time) {
		key := "k" + strconv.Itoa(rng.Intn(13))
		value := make([]byte, rng.Intn(40))
		rng.Read(value)
		return key, value, time.Unix(rng.Int63n(1000), 0).UTC()
	}
	// edgeIndex picks a retained index near a segment edge, or one past the end.
	edgeIndex := func(n int) int {
		edges := []int{0, 1, segSize - 1, segSize, segSize + 1, 2*segSize - 1, 2 * segSize, n - 1, n, rng.Intn(n + 1)}
		return min(max(edges[rng.Intn(len(edges))], 0), n)
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 25:
			op = "produce"
			key, value, ts := newRecord()
			if rng.Intn(2) == 0 {
				key = keyFor(rng.Intn(nParts), nParts)
			}
			p := HashKey(key, nParts)
			got, err := b.Produce(ctx, "log", key, value, ts)
			want, ok := m.produce(p, key, value, ts)
			if ok != (err == nil) || (ok && !sameRecord(got, want)) {
				t.Fatalf("step %d produce: got %+v, %v; model %+v, admitted %v", step, got, err, want, ok)
			}
			if !ok && !errors.Is(err, ErrTopicFull) {
				t.Fatalf("step %d produce: refusal %v is not ErrTopicFull", step, err)
			}
		case r < 40:
			op = "batch"
			batch := make([]Record, rng.Intn(3*segSize+1))
			for i := range batch {
				batch[i].Key, batch[i].Value, batch[i].Time = newRecord()
			}
			admitted, err := b.ProduceBatch(ctx, "log", batch)
			if err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			wantAdmitted := 0
			for p := 0; p < nParts; p++ {
				for i := range batch {
					if HashKey(batch[i].Key, nParts) != p {
						continue
					}
					want, ok := m.produce(p, batch[i].Key, batch[i].Value, batch[i].Time)
					if !ok {
						want = batch[i]
						want.Topic, want.Partition, want.Offset = "log", p, RejectedOffset
					} else {
						wantAdmitted++
					}
					if !sameRecord(batch[i], want) {
						t.Fatalf("step %d batch record %d: got %+v, model %+v", step, i, batch[i], want)
					}
				}
			}
			if admitted != wantAdmitted {
				t.Fatalf("step %d batch: admitted %d, model %d", step, admitted, wantAdmitted)
			}
		case r < 52:
			op = "commit"
			g, p := rng.Intn(2), rng.Intn(nParts)
			off := rng.Int63n(m.parts[p].next + 2)
			cons[g].Commit(Record{Partition: p, Offset: off})
			m.committed[g][p] = max(m.committed[g][p], off+1)
			m.noteCommit(p)
		case r < 55:
			op = "restore"
			g := rng.Intn(2)
			offsets := map[int]int64{}
			for p := 0; p < nParts; p++ {
				if rng.Intn(3) > 0 {
					offsets[p] = rng.Int63n(m.parts[p].next + 1)
				}
			}
			b.RestoreOffsets("g"+strconv.Itoa(g), "log", offsets)
			m.committed[g] = map[int]int64{}
			for p, off := range offsets {
				m.committed[g][p] = off
			}
			for p := 0; p < nParts; p++ {
				m.noteCommit(p)
			}
		case r < 60:
			op = "seek"
			g, p := rng.Intn(2), rng.Intn(nParts)
			off := rng.Int63n(m.parts[p].next + 3)
			if err := cons[g].SeekTo(p, off); err != nil {
				t.Fatalf("step %d seek: %v", step, err)
			}
			m.positions[g][p] = off
		case r < 70:
			op = "trypoll"
			g, lim := rng.Intn(2), 1+rng.Intn(2*segSize)
			got, err := cons[g].TryPollInto(polled[g][:0], lim)
			polled[g] = got
			if err != nil {
				t.Fatalf("step %d trypoll: %v", step, err)
			}
			best := -1
			var bestTime time.Time
			for p := 0; p < nParts; p++ {
				mp := m.parts[p]
				if i := mp.first(m.positions[g][p]); i < len(mp.recs) && (best < 0 || mp.recs[i].Time.Before(bestTime)) {
					best, bestTime = p, mp.recs[i].Time
				}
			}
			var want []Record
			if best >= 0 {
				want = m.fetch(best, m.positions[g][best], lim)
				m.positions[g][best] = want[len(want)-1].Offset + 1
			}
			if !sameRecords(got, want) {
				t.Fatalf("step %d trypoll: got %d records, model %d", step, len(got), len(want))
			}
		case r < 78:
			op = "truncate"
			p := rng.Intn(nParts)
			mp := m.parts[p]
			end := mp.next + rng.Int63n(3)
			if i := edgeIndex(len(mp.recs)); i < len(mp.recs) {
				end = mp.recs[i].Offset + rng.Int63n(2)
			}
			if err := b.Truncate("log", p, end); err != nil {
				t.Fatalf("step %d truncate: %v", step, err)
			}
			if end < mp.next {
				mp.recs = mp.recs[:mp.first(end)]
				mp.next = end
			}
		case r < 83:
			op = "limit"
			caps := []int{0, 1, 50, segSize, segSize + 44, 2*segSize + 88}
			policies := []OverloadPolicy{DropNewest, DropOldestUncommitted}
			m.cap, m.policy = caps[rng.Intn(len(caps))], policies[rng.Intn(len(policies))]
			if err := b.LimitTopic("log", TopicLimit{Capacity: m.cap, Policy: m.policy}); err != nil {
				t.Fatal(err)
			}
		case r < 87:
			op = "pin"
			offsets := map[int]int64{}
			for p := 0; p < nParts; p++ {
				if rng.Intn(3) > 0 {
					offsets[p] = rng.Int63n(m.parts[p].next + 1)
				}
			}
			if err := b.PinReplayFloor("log", offsets); err != nil {
				t.Fatal(err)
			}
			for p, mp := range m.parts {
				if !mp.pinned || offsets[p] > mp.replayFloor {
					mp.replayFloor = offsets[p]
				}
				mp.pinned = true
			}
		default:
			op = "fetch"
			p := rng.Intn(nParts)
			mp := m.parts[p]
			off := mp.next + 1
			if i := edgeIndex(len(mp.recs)); i < len(mp.recs) {
				off = mp.recs[i].Offset - rng.Int63n(2)
			}
			off = max(off, 0)
			lim := 1 + rng.Intn(3*segSize)
			want := m.fetch(p, off, lim)
			got, err := b.Fetch(done, "log", p, off, lim)
			if (err != nil) != (len(want) == 0) || !sameRecords(got, want) {
				t.Fatalf("step %d fetch %d@%d max %d: got %d records, %v; model %d", step, p, off, lim, len(got), err, len(want))
			}
		}
		checkLogModel(t, b, m, done, fmt.Sprintf("step %d (%s)", step, op))
	}
}

// checkLogModel compares every partition and the topic's stats with the
// model, and checks the segment invariants: at most one empty spare segment
// past the tail, and no entry past the tail left holding a record.
func checkLogModel(t *testing.T, b *Broker, m *logModel, done context.Context, where string) {
	t.Helper()
	var records, size, backlog, evicted, rejected int64
	for p, mp := range m.parts {
		if end, err := b.EndOffset("log", p); err != nil || end != mp.next {
			t.Fatalf("%s: partition %d end offset %d, %v; model %d", where, p, end, err, mp.next)
		}
		got, err := b.Fetch(done, "log", p, 0, len(mp.recs)+1)
		if (err != nil) != (len(mp.recs) == 0) || !sameRecords(got, mp.recs) {
			t.Fatalf("%s: partition %d holds %d records, %v; model %d", where, p, len(got), err, len(mp.recs))
		}
		for _, r := range mp.recs {
			size += int64(len(r.Value))
		}
		records += int64(len(mp.recs))
		backlog += int64(mp.backlog())
		evicted += mp.evicted
		rejected += mp.rejected

		topic, _ := b.topic("log")
		topic.mu.Lock()
		l := &topic.parts[p].log
		if used := (l.n + segSize - 1) / segSize; len(l.segs) > used+1 {
			t.Errorf("%s: partition %d keeps %d segments for %d entries", where, p, len(l.segs), l.n)
		}
		for i := l.n; i < len(l.segs)*segSize; i++ {
			if e := l.at(i); e.offset != 0 || e.key != "" || e.value != nil || e.time != (time.Time{}) {
				t.Errorf("%s: partition %d entry %d past the tail %d is not zeroed", where, p, i, l.n)
				break
			}
		}
		topic.mu.Unlock()
	}
	if got, _ := b.Backlog("log"); got != backlog {
		t.Fatalf("%s: backlog %d, model %d", where, got, backlog)
	}
	st, _ := b.Stats().Topic("log")
	want := TopicStats{Name: "log", Partitions: len(m.parts), Records: records, Bytes: size,
		Backlog: backlog, Capacity: m.cap, Evicted: evicted, Rejected: rejected}
	if st != want {
		t.Fatalf("%s: stats %+v, model %+v", where, st, want)
	}
}
