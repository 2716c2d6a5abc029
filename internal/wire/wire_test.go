package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	when := time.Date(2016, 4, 1, 12, 30, 5, 123456789, time.UTC)
	var buf []byte
	buf = AppendHeader(buf, TagProfiler)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -7)
	buf = AppendFloat64(buf, math.NaN())
	buf = AppendBool(buf, true)
	buf = AppendString(buf, "vessel-1")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendTime(buf, when)
	buf = AppendTime(buf, time.Time{})

	r := NewReader(buf)
	if err := r.Header(TagProfiler); err != nil {
		t.Fatal(err)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Float64(); !math.IsNaN(v) {
		t.Errorf("Float64 = %v, want NaN", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if s := r.Str(); s != "vessel-1" {
		t.Errorf("Str = %q", s)
	}
	if b := r.Bytes(); string(b) != "\x01\x02\x03" || cap(b) != 3 {
		t.Errorf("Bytes = %v (cap %d), want [1 2 3] capped at its length", b, cap(b))
	}
	if got := r.Time(); !got.Equal(when) || got.Location() != time.UTC {
		t.Errorf("Time = %v, want %v", got, when)
	}
	if got := r.Time(); got != (time.Time{}) {
		t.Errorf("zero Time = %v, want the zero Time itself", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after an exact read = %v", err)
	}
}

func TestLengthsMatchEncoding(t *testing.T) {
	f := func(u uint64, v int64, s string) bool {
		var tmp [binary.MaxVarintLen64]byte
		when := time.Unix(v%(1<<40), int64(u%1e9))
		return UvarintLen(u) == binary.PutUvarint(tmp[:], u) &&
			VarintLen(v) == binary.PutVarint(tmp[:], v) &&
			StringLen(s) == len(AppendString(nil, s)) &&
			BytesLen([]byte(s)) == len(AppendBytes(nil, []byte(s))) &&
			TimeLen(when) == len(AppendTime(nil, when))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderErrors(t *testing.T) {
	cases := []struct {
		blob    string
		want    error
		message string
	}{
		{"", ErrTag, "empty blob"},
		{`{"n":1}`, ErrTag, `0x7b '{'`},
		{"\xC3\x01", ErrTag, "want tag 0xcb"},
		{"\xCB", ErrMalformed, "no version byte"},
		{"\xCB\x09", ErrVersion, "9"},
	}
	for _, c := range cases {
		r := NewReader([]byte(c.blob))
		err := r.Header(TagProfiler)
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.message) {
			t.Errorf("Header(%q) = %v, want %v mentioning %q", c.blob, err, c.want, c.message)
		}
		if !r.Failed() || r.Err() == nil {
			t.Errorf("Header(%q) failed without latching the reader", c.blob)
		}
	}
}

// TestReaderLatchesAndBoundsCounts: every malformed read latches, later
// reads return zero values, and no count larger than the bytes left can
// size an allocation.
func TestReaderLatchesAndBoundsCounts(t *testing.T) {
	huge := AppendUvarint(nil, math.MaxUint64)
	cases := map[string]func(r *Reader) bool{
		"truncated float":      func(r *Reader) bool { return r.Float64() == 0 },
		"hostile string":       func(r *Reader) bool { return r.Str() == "" },
		"hostile count":        func(r *Reader) bool { return r.Count(1) == 0 },
		"bool out of domain":   func(r *Reader) bool { return !r.Bool() },
		"nanoseconds too many": func(r *Reader) bool { return r.Time().IsZero() },
	}
	inputs := map[string][]byte{
		"truncated float":      {1, 2, 3},
		"hostile string":       huge,
		"hostile count":        huge,
		"bool out of domain":   {2},
		"nanoseconds too many": AppendUvarint(AppendVarint(nil, 0), 1e9),
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		if !read(r) || !r.Failed() {
			t.Errorf("%s: read did not fail to a zero value", name)
		}
		if r.Uvarint() != 0 || r.Byte() != 0 || r.Bytes() != nil {
			t.Errorf("%s: reads after a failure returned data", name)
		}
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: Err = %v, want ErrMalformed", name, r.Err())
		}
	}
	// A count that fits exactly passes; one more element does not.
	blob := append(AppendUvarint(nil, 2), make([]byte, 16)...)
	if n := NewReader(blob).Count(8); n != 2 {
		t.Errorf("Count(8) over 16 bytes = %d, want 2", n)
	}
	if n := NewReader(blob).Count(9); n != 0 {
		t.Errorf("Count(9) over 16 bytes = %d, want 0 (failed)", n)
	}
	if err := NewReader([]byte{0, 0}).Err(); !errors.Is(err, ErrMalformed) {
		t.Errorf("unread trailing bytes: Err = %v, want ErrMalformed", err)
	}
}
