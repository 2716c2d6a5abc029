package synopses

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

func recordPoint() CriticalPoint {
	return CriticalPoint{
		Report: mobility.Report{
			ID: "227006760", Time: time.Date(2016, 4, 1, 6, 30, 15, 123456789, time.UTC),
			Pos: geo.Pt(23.61, 37.94), SpeedKn: 11.5, Heading: 271.25, Source: "ais",
		},
		Type:  ChangeInHeading,
		Delta: -31.5,
	}
}

func TestCriticalPointRecordRoundTrip(t *testing.T) {
	var cps []CriticalPoint
	for _, ct := range criticalTypes {
		cp := recordPoint()
		cp.Type = ct
		cps = append(cps, cp)
	}
	odd := recordPoint()
	odd.ID, odd.Source, odd.Time, odd.Delta = "", "", time.Time{}, math.Inf(-1)
	cps = append(cps, odd, CriticalPoint{Type: "a type from elsewhere", Delta: math.Copysign(0, -1)})
	for _, cp := range cps {
		b := cp.Marshal()
		if len(b) != cp.RecordSize() || cap(b) != len(b) {
			t.Errorf("%s: Marshal wrote %d bytes into %d, RecordSize says %d", cp.Type, len(b), cap(b), cp.RecordSize())
		}
		if got := cp.AppendRecord([]byte("x")); !bytes.Equal(got[1:], b) {
			t.Errorf("%s: AppendRecord and Marshal differ", cp.Type)
		}
		got, err := UnmarshalCriticalPoint(b)
		if err != nil {
			t.Fatalf("%s: %v", cp.Type, err)
		}
		if got != cp || math.Signbit(got.Delta) != math.Signbit(cp.Delta) {
			t.Errorf("round trip: %+v, want %+v", got, cp)
		}
	}
	nan := recordPoint()
	nan.Delta = math.NaN()
	if got, err := UnmarshalCriticalPoint(nan.Marshal()); err != nil || !math.IsNaN(got.Delta) {
		t.Errorf("NaN delta: %v, %v", got.Delta, err)
	}
}

// TestCriticalPointRecordMatchesJSON is the twin of the JSON records the
// synopses topic carried before: every point of a vessel stream decodes from
// its binary record to what its JSON encoding decodes to.
func TestCriticalPointRecordMatchesJSON(t *testing.T) {
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 3})
	cps, _ := Summarize(DefaultMaritime(), sim.Run(time.Hour))
	if len(cps) < 50 {
		t.Fatalf("only %d critical points", len(cps))
	}
	for _, cp := range cps {
		js, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var want CriticalPoint
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalCriticalPoint(cp.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("binary record decodes to %+v, its JSON to %+v", got, want)
		}
	}
}

func TestCriticalPointRecordRejects(t *testing.T) {
	rp := recordPoint()
	good := rp.Marshal()
	badVersion := bytes.Clone(good)
	badVersion[1] = 2
	badReport := bytes.Clone(good)
	badReport[3] = 0 // the report's magic byte
	js, _ := json.Marshal(recordPoint())
	cases := map[string]struct {
		rec     []byte
		wantErr error
	}{
		"empty":             {nil, wire.ErrTag},
		"JSON from before":  {js, wire.ErrTag},
		"operator snapshot": {append([]byte{wire.TagSynopses}, good[1:]...), wire.ErrTag},
		"unknown version":   {badVersion, wire.ErrVersion},
		"header only":       {good[:wire.HeaderLen], wire.ErrMalformed},
		"truncated":         {good[:len(good)-1], wire.ErrMalformed},
		"trailing byte":     {append(bytes.Clone(good), 0), wire.ErrMalformed},
		"corrupt report":    {badReport, wire.ErrMalformed},
	}
	for name, c := range cases {
		cp, err := UnmarshalCriticalPoint(c.rec)
		if !errors.Is(err, c.wantErr) || !strings.HasPrefix(err.Error(), "synopses: decoding critical point") {
			t.Errorf("%s: err = %v, want %v", name, err, c.wantErr)
		}
		if cp != (CriticalPoint{}) {
			t.Errorf("%s: a rejected record decoded to %+v", name, cp)
		}
	}
}

func TestAppendRecordDoesNotAllocate(t *testing.T) {
	cp := recordPoint()
	buf := make([]byte, 0, cp.RecordSize())
	if n := testing.AllocsPerRun(100, func() { buf = cp.AppendRecord(buf[:0]) }); n != 0 {
		t.Errorf("AppendRecord into spare capacity made %v allocations, want 0", n)
	}
}

func FuzzCriticalPointCodec(f *testing.F) {
	rp := recordPoint()
	good := rp.Marshal()
	f.Add(good)
	end := CriticalPoint{Type: TrajectoryEnd}
	f.Add(end.Marshal())
	f.Add(good[:len(good)/2])
	f.Add(append(bytes.Clone(good), 1))
	f.Add([]byte(`{"id":"v","t":"2016-04-01T00:00:00Z","type":"stop_start"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckCodec(t, data, func(b []byte) ([]byte, error) {
			cp, err := UnmarshalCriticalPoint(b)
			if err != nil {
				return nil, err
			}
			return cp.Marshal(), nil
		})
	})
}
