// Package wire is the append-style binary encoding shared by the checkpoint
// frame and every operator snapshot: varints, raw float64 bit patterns and
// length-prefixed strings appended to a caller's buffer, read back by a
// failure-latching Reader. It follows the idiom of mobility's report codec —
// versioned header, no reflection, sentinel errors — so a checkpoint costs
// about as much as copying the state it holds.
//
// Every operator blob starts with a header of two bytes: a tag naming the
// operator kind (the constants below, one per kind, none of them a byte a
// JSON document can start with) and a layout version. Maps are written in
// ascending key order, so two snapshots of equal state are byte-identical.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Operator tags: the first byte of every operator snapshot, and of every
// record on the synopses topic.
const (
	TagShardMeta byte = 0xC1 // checkpoint.ShardSnapshots "shard/meta"
	TagRunState  byte = 0xC2 // core run state ("summary")
	// 0xC3 was lowlevel.Profiler with every observed value, now TagProfiler.
	TagArea     byte = 0xC4 // lowlevel.AreaMonitor
	TagSynopses byte = 0xC5 // synopses.Generator
	TagLinkdisc byte = 0xC6 // linkdisc.Discoverer
	TagCER      byte = 0xC7 // cer.Forecaster
	// 0xC8 was core's per-mover predictor map, now part of TagMovers.
	TagCriticalPoint byte = 0xC9 // synopses.CriticalPoint record
	// 0xCA was core's mover table with value-log profiles and JSON RMF*
	// windows, now TagMovers.
	TagProfiler byte = 0xCB // lowlevel.Profiler, fixed-size P² profiles
	TagMovers   byte = 0xCC // core shard worker's mover table
)

// Version is the layout version every operator snapshot currently writes.
const Version byte = 1

// Decode errors. Operators wrap them with their own name.
var (
	// ErrTag marks a blob whose first byte is not the operator's tag — a
	// blob of another operator, or a JSON snapshot ('{') from before the
	// binary codec.
	ErrTag = errors.New("wire: not a binary snapshot of this operator")
	// ErrVersion marks an unknown layout version.
	ErrVersion = errors.New("wire: unsupported snapshot version")
	// ErrMalformed marks a truncated blob, a length prefix larger than the
	// bytes left, trailing bytes, or a value outside its field's domain.
	ErrMalformed = errors.New("wire: malformed snapshot")
)

// AppendHeader appends an operator blob's tag and version bytes.
func AppendHeader(dst []byte, tag byte) []byte { return append(dst, tag, Version) }

// HeaderLen is the size of an operator blob's header.
const HeaderLen = 2

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendFloat64 appends v's IEEE-754 bit pattern, little-endian. NaN
// payloads and ±Inf round-trip exactly.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	return append(AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	return append(AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendTime appends t as signed Unix seconds and a nanosecond part. The
// zero Time round-trips to the zero Time; the location is not kept (every
// time the operators hold comes off the wire codec in UTC).
func AppendTime(dst []byte, t time.Time) []byte {
	return AppendUvarint(AppendVarint(dst, t.Unix()), uint64(t.Nanosecond()))
}

// UvarintLen is the encoded size of v as an unsigned varint.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen is the encoded size of v as a signed varint.
func VarintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return UvarintLen(ux)
}

// StringLen is the encoded size of s with its length prefix.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// BytesLen is the encoded size of b with its length prefix.
func BytesLen(b []byte) int { return UvarintLen(uint64(len(b))) + len(b) }

// TimeLen is the encoded size of t.
func TimeLen(t time.Time) int {
	return VarintLen(t.Unix()) + UvarintLen(uint64(t.Nanosecond()))
}

// Reader is a failure-latching cursor over an encoded blob: after the first
// malformed field every later read returns a zero value, and the caller
// checks Err once at the end. Length and count prefixes are checked against
// the bytes left before anything is allocated, so a hostile prefix can never
// size an allocation beyond a small multiple of the input.
type Reader struct {
	data   []byte
	pos    int
	failed bool
}

// NewReader returns a Reader over b. Bytes returns sub-slices of b, so the
// caller must not modify b while it holds them.
func NewReader(b []byte) *Reader { return &Reader{data: b} }

// Header checks an operator blob's tag and version.
func (r *Reader) Header(tag byte) error {
	if len(r.data) == 0 || r.data[0] != tag {
		r.failed = true
		return tagErr(r.data, tag)
	}
	if len(r.data) < HeaderLen || r.data[1] != Version {
		r.failed = true
		return versionErr(r.data)
	}
	r.pos = HeaderLen
	return nil
}

func tagErr(data []byte, tag byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty blob, want tag %#02x", ErrTag, tag)
	}
	return fmt.Errorf("%w: first byte %#02x %q, want tag %#02x", ErrTag, data[0], data[0], tag)
}

func versionErr(data []byte) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("%w: no version byte", ErrMalformed)
	}
	return fmt.Errorf("%w %d (this build reads %d)", ErrVersion, data[1], Version)
}

// Fail latches the reader's failure; decoders call it when a value is
// well-formed on the wire but outside its field's domain.
func (r *Reader) Fail() { r.failed = true }

// Failed reports whether any read so far was malformed.
func (r *Reader) Failed() bool { return r.failed }

// remaining is the number of unread bytes.
func (r *Reader) remaining() int { return len(r.data) - r.pos }

// Err returns ErrMalformed when a read failed or bytes are left over, nil
// when the blob was consumed exactly.
func (r *Reader) Err() error {
	if r.failed || r.pos != len(r.data) {
		return ErrMalformed
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.failed || r.pos >= len(r.data) {
		r.failed = true
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.failed = true
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.failed {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.failed {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.pos += n
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if v < math.MinInt || v > math.MaxInt {
		r.failed = true
		return 0
	}
	return int(v)
}

// Float64 reads a raw float64 bit pattern.
func (r *Reader) Float64() float64 {
	if r.failed || r.remaining() < 8 {
		r.failed = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// Count reads a uvarint element count and checks it against the bytes
// left, given that every element occupies at least minSize bytes (≥ 1). A
// count that passes is safe to size an allocation with.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.failed || n > uint64(r.remaining()/minSize) {
		r.failed = true
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string as a sub-slice of the input —
// no copy.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.failed {
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Str reads a length-prefixed string. (Not String: a Reader is not a
// fmt.Stringer, and printing one must not consume it.)
func (r *Reader) Str() string { return string(r.Bytes()) }

// Time reads a time written by AppendTime, in UTC.
func (r *Reader) Time() time.Time {
	sec := r.Varint()
	nsec := r.Uvarint()
	if r.failed || nsec >= uint64(time.Second) {
		r.failed = true
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}
