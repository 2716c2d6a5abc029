package mobility

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/wire"
)

func testReport() Report {
	return Report{
		ID:      "mmsi-237000001",
		Time:    time.Date(2016, 3, 1, 12, 30, 15, 123456789, time.UTC),
		Pos:     geo.Pt(23.5987, 37.9421),
		AltFt:   0,
		SpeedKn: 12.3,
		Heading: 271.5,
		VRateFS: 0,
		Source:  "ais-terrestrial",
	}
}

// reportsEqual compares every field, with Time by instant.
func reportsEqual(a, b Report) bool {
	return a.ID == b.ID && a.Source == b.Source && a.Time.Equal(b.Time) &&
		a.Pos == b.Pos && a.AltFt == b.AltFt && a.SpeedKn == b.SpeedKn &&
		a.Heading == b.Heading && a.VRateFS == b.VRateFS
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := map[string]Report{
		"typical": testReport(),
		"empty source": {
			ID: "icao24-abc123", Time: time.Unix(1456833015, 0).UTC(),
			Pos: geo.Pt(-5.1, 50.2), AltFt: 35000, SpeedKn: 440, Heading: 88, VRateFS: -12.5,
		},
		"zero report": {},
		"sub-second timestamp": {
			ID: "v1", Time: time.Unix(12, 345).UTC(), Pos: geo.Pt(1, 2),
		},
		"negative coords": {
			ID: "v2", Time: time.Unix(-1, 999_999_999).UTC(), Pos: geo.Pt(-179.999999, -89.5),
			SpeedKn: 0.0001, Heading: 359.999,
		},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			b := r.AppendBinary(nil)
			if want := r.BinarySize(); len(b) != want {
				t.Fatalf("encoded %d bytes, BinarySize says %d", len(b), want)
			}
			if !IsBinaryReport(b) {
				t.Fatalf("encoded payload not recognised as binary")
			}
			var got Report
			if err := UnmarshalReportBinary(b, &got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reportsEqual(r, got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
			}
			// Re-encode must be byte-identical: the checkpoint replay
			// guarantee for binary records.
			if b2 := got.AppendBinary(nil); !bytes.Equal(b, b2) {
				t.Fatalf("re-encode diverged:\n %x\n %x", b, b2)
			}
		})
	}
}

// TestFramedRoundTrip: a framed report's length prefix matches what
// AppendBinary writes, also for IDs past the 64 KiB frame limit (which it
// truncates), and ReadFramed decodes it back.
func TestFramedRoundTrip(t *testing.T) {
	long := testReport()
	long.ID = strings.Repeat("x", maxFieldLen+10)
	for _, r := range []Report{testReport(), {}, long} {
		if got, want := r.BinarySize(), len(r.AppendBinary(nil)); got != want {
			t.Errorf("BinarySize = %d, AppendBinary wrote %d", got, want)
		}
		framed := r.AppendFramed([]byte{0xAA})[1:]
		if len(framed) != r.FramedSize() {
			t.Errorf("FramedSize = %d, AppendFramed wrote %d", r.FramedSize(), len(framed))
		}
		var got Report
		rd := wire.NewReader(framed)
		ReadFramed(rd, &got)
		if err := rd.Err(); err != nil {
			t.Fatalf("ReadFramed: %v", err)
		}
		want := r
		want.ID = want.ID[:min(len(want.ID), maxFieldLen)]
		if got != want {
			t.Errorf("framed round trip: got %+v, want %+v", got, want)
		}
	}
	rd := wire.NewReader(wire.AppendBytes(nil, []byte{BinaryMagic, 9}))
	if ReadFramed(rd, new(Report)); !rd.Failed() {
		t.Error("a framed report of an unknown version did not fail the reader")
	}
}

func TestBinarySniffing(t *testing.T) {
	r := testReport()
	jsonB := r.Marshal()
	binB := r.AppendBinary(nil)
	if IsBinaryReport(jsonB) || !IsBinaryReport(binB) {
		t.Fatalf("magic byte misread")
	}

	// Both binary decoders accept the binary form and reject JSON.
	var got Report
	if err := UnmarshalReportBinary(binB, &got); err != nil || !reportsEqual(r, got) {
		t.Fatalf("UnmarshalReportBinary(binary) = %+v, %v", got, err)
	}
	d := NewDecoder()
	var got2 Report
	if err := d.Decode(binB, &got2); err != nil || !reportsEqual(r, got2) {
		t.Fatalf("Decoder.Decode(binary) = %+v, %v", got2, err)
	}
	if err := UnmarshalReportBinary(jsonB, &got); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("UnmarshalReportBinary(json) = %v, want ErrNotBinary", err)
	}
	if err := d.Decode(jsonB, &got2); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("Decoder.Decode(json) = %v, want ErrNotBinary", err)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	r := testReport()
	b := r.AppendBinary(nil)

	var got Report
	if err := UnmarshalReportBinary(b[:10], &got); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v, want ErrTruncated", err)
	}
	if err := UnmarshalReportBinary(b[:len(b)-1], &got); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short strings: %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), b...)
	bad[1] = 99
	if err := UnmarshalReportBinary(bad, &got); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v, want ErrBadVersion", err)
	}
	if err := UnmarshalReportBinary(nil, &got); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("nil payload: %v, want ErrNotBinary", err)
	}
}

// TestAppendBinaryAllocs pins the codec's zero-allocation encode guarantee:
// with a reused buffer of sufficient capacity, AppendBinary performs no heap
// allocations.
func TestAppendBinaryAllocs(t *testing.T) {
	r := testReport()
	buf := make([]byte, 0, r.BinarySize())
	allocs := testing.AllocsPerRun(1000, func() {
		buf = r.AppendBinary(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendBinary allocates %.1f times per op, want 0", allocs)
	}
}

// TestUnmarshalReportBinaryAllocs pins the stateless decoder's steady state:
// decoding into a Report that already holds the record's strings performs no
// heap allocations.
func TestUnmarshalReportBinaryAllocs(t *testing.T) {
	r := testReport()
	b := r.AppendBinary(nil)
	var dst Report
	if err := UnmarshalReportBinary(b, &dst); err != nil { // warm the string fields
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := UnmarshalReportBinary(b, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnmarshalReportBinary allocates %.1f times per op, want 0", allocs)
	}
}

// TestDecoderAllocs pins the interning decoder's steady state over a
// multi-mover stream: once every mover has been seen, decoding allocates
// nothing regardless of record order.
func TestDecoderAllocs(t *testing.T) {
	reports := make([]Report, 16)
	payloads := make([][]byte, len(reports))
	for i := range reports {
		r := testReport()
		r.ID = string(rune('a'+i)) + "-mover"
		r.Time = r.Time.Add(time.Duration(i) * time.Second)
		reports[i] = r
		payloads[i] = r.AppendBinary(nil)
	}
	d := NewDecoder()
	var dst Report
	for _, p := range payloads { // warm the intern table
		if err := d.Decode(p, &dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := d.Decode(payloads[i%len(payloads)], &dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Decoder.Decode allocates %.1f times per op in steady state, want 0", allocs)
	}
	if dst.ID == "" {
		t.Fatal("decoder produced empty report")
	}
}

// FuzzReportCodec fuzzes the codec's round trip: binary → decode →
// re-encode must be byte-identical, with the ID intact below the frame
// limit.
func FuzzReportCodec(f *testing.F) {
	r := testReport()
	f.Add(r.ID, r.Source, r.Time.Unix(), int64(r.Time.Nanosecond()),
		r.Pos.Lon, r.Pos.Lat, r.AltFt, r.SpeedKn, r.Heading, r.VRateFS)
	f.Add("", "", int64(0), int64(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add("v", "", int64(12), int64(345), 1.0, 2.0, 0.0, math.Inf(1), math.NaN(), -0.0)
	f.Fuzz(func(t *testing.T, id, source string, sec, nsec int64,
		lon, lat, alt, speed, heading, vrate float64) {
		// Clamp the instant into the representable envelope (year 1–9999):
		// outside it time.Unix wraps, so the codec does not claim to
		// round-trip there.
		const minSec, maxSec = -62135596800, 253402300799
		if sec < minSec {
			sec = minSec
		}
		if sec > maxSec {
			sec = maxSec
		}
		if nsec < 0 {
			nsec = -nsec
		}
		nsec %= 1_000_000_000
		r := Report{
			ID: id, Source: source,
			Time:  time.Unix(sec, nsec).UTC(),
			Pos:   geo.Point{Lon: lon, Lat: lat},
			AltFt: alt, SpeedKn: speed, Heading: heading, VRateFS: vrate,
		}

		b1 := r.AppendBinary(nil)
		var dec Report
		if err := UnmarshalReportBinary(b1, &dec); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if b2 := dec.AppendBinary(nil); !bytes.Equal(b1, b2) {
			t.Fatalf("re-encode not byte-identical:\n %x\n %x", b1, b2)
		}
		if len(id) <= maxFieldLen && dec.ID != id {
			t.Fatalf("ID mangled: %q -> %q", id, dec.ID)
		}
	})
}
