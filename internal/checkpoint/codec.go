package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"datacron/internal/wire"
)

// Wire format (all integers varint/uvarint, strings and blobs length-
// prefixed):
//
//	magic "DCKP" | version u8 | generation | #sources { group topic
//	#offsets { partition offset } } | #outputs { topic #ends { partition
//	end } } | #operators { name blob } | crc32-IEEE (4 bytes LE) over
//	everything before it
//
// Maps are emitted in sorted key order, so encoding a checkpoint is
// deterministic and re-encoding a decoded checkpoint is byte-identical.

var magic = [4]byte{'D', 'C', 'K', 'P'}

const codecVersion = 1

// Encode serializes a checkpoint with a trailing CRC into one buffer sized
// up front. The checkpoint's sections are sorted into canonical order as a
// side effect.
func Encode(cp *Checkpoint) ([]byte, error) {
	cp.normalize()
	names := make([]string, 0, len(cp.Operators))
	for name := range cp.Operators {
		names = append(names, name)
	}
	sort.Strings(names)

	size := len(magic) + 1 + wire.UvarintLen(cp.Generation) + 4
	size += wire.UvarintLen(uint64(len(cp.Sources)))
	for _, s := range cp.Sources {
		size += wire.StringLen(s.Group) + wire.StringLen(s.Topic) + offsetMapLen(s.Offsets)
	}
	size += wire.UvarintLen(uint64(len(cp.Outputs)))
	for _, o := range cp.Outputs {
		size += wire.StringLen(o.Topic) + offsetMapLen(o.Ends)
	}
	size += wire.UvarintLen(uint64(len(names)))
	for _, name := range names {
		size += wire.StringLen(name) + wire.BytesLen(cp.Operators[name])
	}

	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = append(buf, codecVersion)
	buf = wire.AppendUvarint(buf, cp.Generation)
	buf = wire.AppendUvarint(buf, uint64(len(cp.Sources)))
	for _, s := range cp.Sources {
		buf = wire.AppendString(buf, s.Group)
		buf = wire.AppendString(buf, s.Topic)
		buf = appendOffsetMap(buf, s.Offsets)
	}
	buf = wire.AppendUvarint(buf, uint64(len(cp.Outputs)))
	for _, o := range cp.Outputs {
		buf = wire.AppendString(buf, o.Topic)
		buf = appendOffsetMap(buf, o.Ends)
	}
	buf = wire.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = wire.AppendString(buf, name)
		buf = wire.AppendBytes(buf, cp.Operators[name])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// Decode parses an encoded checkpoint, verifying the CRC first. Any
// structural damage — flipped bytes, truncation, trailing garbage —
// yields an error wrapping ErrCorrupt. Operator blobs are sub-slices of
// data, not copies: the caller must not modify data afterwards.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if [4]byte(body) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:len(magic)])
	}
	r := wire.NewReader(body[len(magic):])
	if v := r.Byte(); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	cp := &Checkpoint{Generation: r.Uvarint()}
	// Every source and output is at least two one-byte length prefixes plus
	// a count; every operator at least two length prefixes.
	if n := r.Count(3); n > 0 {
		cp.Sources = make([]SourceOffsets, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			cp.Sources = append(cp.Sources, SourceOffsets{
				Group: r.Str(), Topic: r.Str(), Offsets: readOffsetMap(r),
			})
		}
	}
	if n := r.Count(2); n > 0 {
		cp.Outputs = make([]OutputEnds, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			cp.Outputs = append(cp.Outputs, OutputEnds{Topic: r.Str(), Ends: readOffsetMap(r)})
		}
	}
	if n := r.Count(2); n > 0 {
		cp.Operators = make(map[string][]byte, n)
		for i := 0; i < n && !r.Failed(); i++ {
			name := r.Str()
			cp.Operators[name] = r.Bytes()
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: malformed body", ErrCorrupt)
	}
	return cp, nil
}

func offsetMapLen(m map[int]int64) int {
	n := wire.UvarintLen(uint64(len(m)))
	for p, off := range m {
		n += wire.VarintLen(int64(p)) + wire.VarintLen(off)
	}
	return n
}

func appendOffsetMap(buf []byte, m map[int]int64) []byte {
	parts := make([]int, 0, len(m))
	for p := range m {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	buf = wire.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = wire.AppendVarint(buf, int64(p))
		buf = wire.AppendVarint(buf, m[p])
	}
	return buf
}

func readOffsetMap(r *wire.Reader) map[int]int64 {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[int]int64, n)
	for i := 0; i < n && !r.Failed(); i++ {
		p := r.Varint()
		off := r.Varint()
		if p < math.MinInt32 || p > math.MaxInt32 {
			r.Fail()
			return nil
		}
		m[int(p)] = off
	}
	return m
}
