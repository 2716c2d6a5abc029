package mobility

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"datacron/internal/wire"
)

// Binary wire codec for Report.
//
// The paper's in-situ processing principle demands per-record cost near the
// hardware floor, but the original wire format — reflection-based
// encoding/json — dominated the decode stage of the hot path. This codec
// replaces it with a fixed-layout little-endian encoding that encodes with
// zero heap allocations into a caller-provided buffer and decodes with zero
// steady-state allocations into a caller-provided Report.
//
// Layout of version 1 (all integers little-endian):
//
//	offset  size  field
//	------  ----  -----------------------------------------
//	0       1     magic (0xD4)
//	1       1     version (0x01)
//	2       8     event time, Unix seconds (int64)
//	10      4     event time, nanosecond part (uint32)
//	14      8     Pos.Lon (IEEE-754 bits)
//	22      8     Pos.Lat
//	30      8     AltFt
//	38      8     SpeedKn
//	46      8     Heading
//	54      8     VRateFS
//	62      2     len(ID) (uint16)
//	64      2     len(Source) (uint16)
//	66      ...   ID bytes, then Source bytes
//
// Every decoder checks the magic byte and rejects any other payload with
// ErrNotBinary: the raw topic and every checkpoint carry this format only.
//
// Compatibility rules: the magic byte never changes; a layout change bumps
// the version byte and decoders keep accepting every prior version. Fields
// are fixed-position, so version 1 decodes with no per-field framing cost.

const (
	// BinaryMagic is the first byte of every binary-encoded report.
	BinaryMagic = 0xD4
	// BinaryVersion is the current layout version.
	BinaryVersion = 1
	// binaryHeader is the fixed-size prefix before the ID/Source bytes.
	binaryHeader = 66
	// BinaryMinSize is the encoded size of a report with an empty ID and
	// source: the floor decoders of framed reports check counts against.
	BinaryMinSize = binaryHeader
	// maxFieldLen bounds the ID and Source lengths (uint16 length prefix).
	maxFieldLen = math.MaxUint16
)

// Codec errors. They are sentinels so hot-path decode failures never
// allocate a fresh error value per corrupt record.
var (
	// ErrNotBinary marks a payload without the binary magic byte.
	ErrNotBinary = errors.New("mobility: payload is not binary-encoded")
	// ErrBadVersion marks an unknown binary layout version.
	ErrBadVersion = errors.New("mobility: unknown binary codec version")
	// ErrTruncated marks a binary payload shorter than its layout requires.
	ErrTruncated = errors.New("mobility: truncated binary report")
	// ErrFieldTooLong marks an ID or Source longer than the uint16 length
	// prefix can frame.
	ErrFieldTooLong = errors.New("mobility: report field exceeds 64 KiB")
)

// IsBinaryReport reports whether b starts with the binary codec's magic
// byte. JSON payloads (which start with '{') return false.
func IsBinaryReport(b []byte) bool {
	return len(b) > 0 && b[0] == BinaryMagic
}

// The encoders take a *Report: a Report is over a hundred bytes, and a
// per-record encode should not copy it once per call.

// BinarySize returns the exact encoded size of r, for pre-sizing buffers.
func (r *Report) BinarySize() int {
	return binaryHeader + min(len(r.ID), maxFieldLen) + min(len(r.Source), maxFieldLen)
}

// AppendBinary appends the binary wire encoding of r to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so a caller
// reusing a scratch buffer encodes with zero heap allocations in steady
// state. IDs or sources longer than 64 KiB are truncated to the frame limit
// (no real mover identifier approaches it).
func (r *Report) AppendBinary(dst []byte) []byte {
	id, src := r.ID, r.Source
	if len(id) > maxFieldLen {
		id = id[:maxFieldLen]
	}
	if len(src) > maxFieldLen {
		src = src[:maxFieldLen]
	}
	n := len(dst)
	dst = slices.Grow(dst, binaryHeader+len(id)+len(src))[:n+binaryHeader]
	b := dst[n:]
	b[0], b[1] = BinaryMagic, BinaryVersion
	le := binary.LittleEndian
	le.PutUint64(b[2:], uint64(r.Time.Unix()))
	le.PutUint32(b[10:], uint32(r.Time.Nanosecond()))
	le.PutUint64(b[14:], math.Float64bits(r.Pos.Lon))
	le.PutUint64(b[22:], math.Float64bits(r.Pos.Lat))
	le.PutUint64(b[30:], math.Float64bits(r.AltFt))
	le.PutUint64(b[38:], math.Float64bits(r.SpeedKn))
	le.PutUint64(b[46:], math.Float64bits(r.Heading))
	le.PutUint64(b[54:], math.Float64bits(r.VRateFS))
	le.PutUint16(b[62:], uint16(len(id)))
	le.PutUint16(b[64:], uint16(len(src)))
	dst = append(dst, id...)
	return append(dst, src...)
}

// FramedSize is the size of r's binary encoding behind a uvarint length
// prefix — the form operator snapshots embed reports in.
func (r *Report) FramedSize() int {
	n := r.BinarySize()
	return wire.UvarintLen(uint64(n)) + n
}

// AppendFramed appends r's binary encoding behind a uvarint length prefix.
func (r *Report) AppendFramed(dst []byte) []byte {
	return r.AppendBinary(wire.AppendUvarint(dst, uint64(r.BinarySize())))
}

// ReadFramed decodes a report written by AppendFramed into *r in place — an
// ID or source equal to the one *r already holds is kept, not re-allocated —
// and latches rd's failure on a malformed one.
func ReadFramed(rd *wire.Reader, r *Report) {
	b := rd.Bytes()
	if !rd.Failed() && UnmarshalReportBinary(b, r) != nil {
		rd.Fail()
	}
}

// MarshalBinary encodes r into a fresh buffer sized exactly. It implements
// encoding.BinaryMarshaler; hot paths should prefer AppendBinary with a
// reused buffer.
func (r Report) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.BinarySize())), nil
}

// DecodeFields decodes the fixed-position fields of a version-1 payload into
// *r and returns the ID and Source bytes, sub-slices of b, for the caller to
// materialise: the one step whose allocation strategy differs between the
// stateless decoder, the interning Decoder and a caller that keeps one
// record per mover and looks it up by the ID bytes. r.ID and r.Source are
// left as they were.
func DecodeFields(b []byte, r *Report) (id, src []byte, err error) {
	if !IsBinaryReport(b) {
		return nil, nil, ErrNotBinary
	}
	if len(b) < binaryHeader {
		return nil, nil, ErrTruncated
	}
	if b[1] != BinaryVersion {
		return nil, nil, ErrBadVersion
	}
	sec := int64(binary.LittleEndian.Uint64(b[2:]))
	nsec := binary.LittleEndian.Uint32(b[10:])
	idLen := int(binary.LittleEndian.Uint16(b[62:]))
	srcLen := int(binary.LittleEndian.Uint16(b[64:]))
	if len(b) != binaryHeader+idLen+srcLen {
		return nil, nil, ErrTruncated
	}
	r.Time = time.Unix(sec, int64(nsec)).UTC()
	r.Pos.Lon = math.Float64frombits(binary.LittleEndian.Uint64(b[14:]))
	r.Pos.Lat = math.Float64frombits(binary.LittleEndian.Uint64(b[22:]))
	r.AltFt = math.Float64frombits(binary.LittleEndian.Uint64(b[30:]))
	r.SpeedKn = math.Float64frombits(binary.LittleEndian.Uint64(b[38:]))
	r.Heading = math.Float64frombits(binary.LittleEndian.Uint64(b[46:]))
	r.VRateFS = math.Float64frombits(binary.LittleEndian.Uint64(b[54:]))
	return b[binaryHeader : binaryHeader+idLen], b[binaryHeader+idLen:], nil
}

// setString stores b into *dst, reusing the existing string when it already
// holds the same bytes. The comparison converts without allocating, so
// decoding a stream of records into the same Report only allocates when a
// string field actually changes value.
func setString(dst *string, b []byte) {
	if *dst != string(b) {
		*dst = string(b)
	}
}

// UnmarshalReportBinary decodes a binary-encoded report into *r. It rejects
// non-binary payloads with ErrNotBinary.
//
// String fields reuse r's existing strings when the bytes match, so
// steady-state decoding — the same mover's records into a reused Report —
// performs zero heap allocations. Multi-mover streams should decode through
// a Decoder, whose intern table extends the zero-allocation guarantee to any
// recurring mover set.
func UnmarshalReportBinary(b []byte, r *Report) error {
	id, src, err := DecodeFields(b, r)
	if err != nil {
		return err
	}
	setString(&r.ID, id)
	setString(&r.Source, src)
	return nil
}

// maxInternEntries bounds a Decoder's intern table. Mover fleets are
// bounded (thousands), so the cap is a safety valve against adversarial
// ID churn, not a working limit; past it the decoder simply allocates.
const maxInternEntries = 1 << 16

// Decoder decodes wire-format reports with per-decoder string interning:
// each distinct ID/Source value is materialised once and reused for every
// later record carrying it, so steady-state decoding of a recurring mover
// fleet performs zero heap allocations regardless of record order.
//
// A Decoder is not safe for concurrent use; give each goroutine its own
// (interned strings are immutable, so decoders may freely share decoded
// Reports downstream). The real-time layer's shard workers intern through
// their mover tables instead (DecodeFields).
type Decoder struct {
	intern map[string]string
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{intern: make(map[string]string, 64)}
}

// internBytes returns a string equal to b, reusing the interned copy when
// one exists. Map lookups keyed by string(b) do not allocate; only the
// first occurrence of a value materialises a string.
func (d *Decoder) internBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.intern) < maxInternEntries {
		d.intern[s] = s
	}
	return s
}

// Decode decodes a binary-encoded report into *r with zero steady-state
// allocations, rejecting non-binary payloads with ErrNotBinary.
func (d *Decoder) Decode(b []byte, r *Report) error {
	id, src, err := DecodeFields(b, r)
	if err != nil {
		return err
	}
	r.ID = d.internBytes(id)
	r.Source = d.internBytes(src)
	return nil
}
