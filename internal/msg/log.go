package msg

import (
	"sort"
	"time"
)

// segSize is the number of entries in one log segment. It is a constant, not
// a knob: 256 entries of 72 B are 18 KiB, under the runtime's 32 KiB
// small-object limit, so a segment comes from a size class and never takes
// the large-object path that zeroes its memory in chunks.
const segSize = 256

// entry is one record as a partition stores it: 72 B against Record's 96.
// Topic and partition are properties of the partition, and Fetch fills them
// back in.
type entry struct {
	offset int64
	key    string
	value  []byte
	time   time.Time
}

// segment is a fixed block of entries.
type segment [segSize]entry

// partLog is a partition's retained records: a dense run of entries sorted by
// offset, entry i at segs[i/segSize][i%segSize]. An append writes in place and
// a full last segment allocates exactly one new segment, so nothing already
// appended is copied again as the log grows. Offsets are sparse where
// DropOldestUncommitted shed records, so callers find an offset with search,
// never by assuming index = offset. The owning topic's mutex guards it.
type partLog struct {
	segs  []*segment // every segment holding an entry, plus at most one empty spare
	n     int        // entries retained
	bytes int64      // summed value sizes of the retained entries
}

func (l *partLog) len() int { return l.n }

// at returns entry i, 0 <= i < len().
func (l *partLog) at(i int) *entry { return &l.segs[i/segSize][i%segSize] }

// push appends an entry at the tail.
func (l *partLog) push(offset int64, key string, value []byte, ts time.Time) {
	if l.n == len(l.segs)*segSize {
		//lint:ignore boundedchan bounded by the admission loop when a TopicLimit is set; unbounded topics are the documented zero-value behaviour
		l.segs = append(l.segs, new(segment))
	}
	*l.at(l.n) = entry{offset: offset, key: key, value: value, time: ts}
	l.n++
	l.bytes += int64(len(value))
}

// search returns the index of the first entry with offset >= offset, len()
// when there is none.
func (l *partLog) search(offset int64) int {
	return sort.Search(l.n, func(i int) bool { return l.at(i).offset >= offset })
}

// truncate drops entries i and later: every segment past the cut is released
// and the tail of the segment the cut falls into is zeroed, so no dropped
// value stays reachable from the log.
func (l *partLog) truncate(i int) {
	if i >= l.n {
		return
	}
	for j := i; j < l.n; j++ {
		l.bytes -= int64(len(l.at(j).value))
	}
	keep := (i + segSize - 1) / segSize
	if i%segSize != 0 {
		clear(l.segs[i/segSize][i%segSize:])
	}
	clear(l.segs[keep:])
	l.segs = l.segs[:keep]
	l.n = i
}

// removeAt deletes entry i, shifting the later entries down by one, and
// zeroes the vacated last slot. A segment emptied by the shift is kept as the
// next append's spare, so shedding one record to admit one never frees and
// reallocates a segment; a second empty segment is released.
func (l *partLog) removeAt(i int) {
	l.bytes -= int64(len(l.at(i).value))
	for s := i / segSize; s*segSize < l.n; s++ {
		seg := l.segs[s]
		lo := 0
		if s == i/segSize {
			lo = i % segSize
		}
		copy(seg[lo:], seg[lo+1:])
		if (s+1)*segSize < l.n {
			seg[segSize-1] = l.segs[s+1][0]
		}
	}
	l.n--
	*l.at(l.n) = entry{}
	if used := (l.n + segSize - 1) / segSize; len(l.segs) > used+1 {
		l.segs[len(l.segs)-1] = nil
		l.segs = l.segs[:len(l.segs)-1]
	}
}

// appendOut appends entries [i, j) to dst as records of the given topic and
// partition, growing dst at most once.
func (l *partLog) appendOut(dst []Record, i, j int, topicName string, partitionIdx int) []Record {
	if n := len(dst) + j - i; n > cap(dst) {
		grown := make([]Record, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for k := i; k < j; k++ {
		e := l.at(k)
		dst = append(dst, Record{
			Topic:     topicName,
			Partition: partitionIdx,
			Offset:    e.offset,
			Key:       e.key,
			Value:     e.value,
			Time:      e.time,
		})
	}
	return dst
}
