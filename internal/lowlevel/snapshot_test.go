package lowlevel

import (
	"bytes"
	"math"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

// profileWire mirrors one mover of the profiler's snapshot layout field for
// field, and encodeProfiles writes them exactly as Snapshot does — including
// the invalid states Snapshot never would, which is what the corrupt-blob
// tables need. Test-only.
type profileWire struct {
	id           string
	speed, accel statsWire
	hasLast      bool
	lastTime     time.Time
	lastSpeedMS  float64
}

// statsWire mirrors one accumulator's record: the count, and from one value
// on the extremes, the sum, min(n, 5) marker heights and, from five values
// on, the three inner marker positions.
type statsWire struct {
	n             uint64
	min, max, sum float64
	q             []float64
	pos           []uint64
}

func stateOf(s *RunningStats) statsWire {
	w := statsWire{n: uint64(s.n), min: s.min, max: s.max, sum: s.sum}
	if s.n > 0 {
		w.q = s.q[:min(s.n, 5)]
	}
	if s.n >= 5 {
		for _, p := range s.pos {
			w.pos = append(w.pos, uint64(p))
		}
	}
	return w
}

func appendStatsWire(buf []byte, s statsWire) []byte {
	buf = wire.AppendUvarint(buf, s.n)
	if s.n == 0 {
		return buf
	}
	for _, v := range append([]float64{s.min, s.max, s.sum}, s.q...) {
		buf = wire.AppendFloat64(buf, v)
	}
	for _, p := range s.pos {
		buf = wire.AppendUvarint(buf, p)
	}
	return buf
}

func encodeProfiles(ps ...profileWire) []byte {
	buf := wire.AppendHeader(nil, wire.TagProfiler)
	buf = wire.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = wire.AppendString(buf, p.id)
		buf = appendStatsWire(buf, p.speed)
		buf = appendStatsWire(buf, p.accel)
		buf = wire.AppendBool(buf, p.hasLast)
		buf = wire.AppendTime(buf, p.lastTime)
		buf = wire.AppendFloat64(buf, p.lastSpeedMS)
	}
	return buf
}

// TestProfilerSnapshotLayout pins Snapshot's bytes to the documented
// layout, as written by the independent test encoder.
func TestProfilerSnapshotLayout(t *testing.T) {
	pf := profiledFleet(t)
	var want []profileWire
	for _, id := range pf.MoverIDs() {
		p := pf.Profile(id)
		want = append(want, profileWire{id: id, speed: stateOf(&p.Speed), accel: stateOf(&p.Accel),
			hasLast: p.hasLast, lastTime: p.lastTime, lastSpeedMS: p.lastSpeedMS})
	}
	got, err := pf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodeProfiles(want...)) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", got, encodeProfiles(want...))
	}
	if again, _ := pf.Snapshot(); !bytes.Equal(got, again) {
		t.Fatal("two snapshots of one state differ")
	}
}

// TestProfilerRestoreKeepsNonFiniteStats: an accumulator that saw +Inf has
// an infinite sum and maximum, and the raw-bits encoding round-trips it
// (JSON could not); an empty accumulator restores empty.
func TestProfilerRestoreKeepsNonFiniteStats(t *testing.T) {
	pf := NewProfiler()
	when := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	pf.Observe(mobility.Report{ID: "inf", Time: when, Pos: geo.Pt(23.5, 38), SpeedKn: math.Inf(1)})
	pf.Observe(mobility.Report{ID: "one", Time: when, Pos: geo.Pt(23.5, 38), SpeedKn: 3})
	blob, err := pf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewProfiler()
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := restored.Profile("inf").Speed.Max(); !math.IsInf(got, 1) {
		t.Errorf("restored max = %v, want +Inf", got)
	}
	if got := restored.Profile("inf").Speed.Mean(); !math.IsInf(got, 1) {
		t.Errorf("restored mean = %v, want +Inf", got)
	}
	if acc := restored.Profile("one").Accel; acc.N() != 0 || !math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) {
		t.Errorf("empty accumulator restored with n %d, min/max %v/%v", acc.N(), acc.Min(), acc.Max())
	}
	if again, _ := restored.Snapshot(); !bytes.Equal(blob, again) {
		t.Error("restored profiler snapshots differently")
	}
}

// areaEntry is one mover of the area monitor's snapshot layout, and
// encodeArea writes entries exactly as Snapshot does. Test-only.
type areaEntry struct {
	id  string
	ris []uint64
}

func encodeArea(entries ...areaEntry) []byte {
	buf := wire.AppendHeader(nil, wire.TagArea)
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = wire.AppendString(buf, e.id)
		buf = wire.AppendUvarint(buf, uint64(len(e.ris)))
		for _, ri := range e.ris {
			buf = wire.AppendUvarint(buf, ri)
		}
	}
	return buf
}

func monitoredFleet() *AreaMonitor {
	m := NewAreaMonitor(mkRegions(), 32)
	m.Update(rep("v1", 0, 23.7, 37.7)) // natura-1 and natura-2
	m.Update(rep("v2", 0, 26.5, 36.5)) // fishing-1
	return m
}

func TestAreaMonitorSnapshotRoundTrip(t *testing.T) {
	m := monitoredFleet()
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeArea(areaEntry{"v1", []uint64{0, 1}}, areaEntry{"v2", []uint64{2}}); !bytes.Equal(blob, want) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", blob, want)
	}
	restored := NewAreaMonitor(mkRegions(), 32)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := restored.Inside("v1"); len(got) != 2 {
		t.Errorf("restored v1 inside %v", got)
	}
	// Leaving both regions must now report two exits, as on the original.
	if evs := restored.Update(rep("v1", 10, 20, 35)); len(evs) != 2 {
		t.Errorf("exits after restore = %v", evs)
	}
}

func TestAreaMonitorRestoreRejectsCorruptBlobs(t *testing.T) {
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"region index out of range": {encodeArea(areaEntry{"v1", []uint64{0}}, areaEntry{"v9", []uint64{3}}), "out of range"},
		"region indices unsorted":   {encodeArea(areaEntry{"v1", []uint64{1, 0}}), "ascending order"},
		"duplicate region index":    {encodeArea(areaEntry{"v1", []uint64{1, 1}}), "ascending order"},
		"movers out of order":       {encodeArea(areaEntry{"v2", []uint64{0}}, areaEntry{"v1", []uint64{0}}), "ascending order"},
		"JSON from before":          {[]byte(`{"v1":[0]}`), "not a binary snapshot"},
		"truncated":                 {encodeArea(areaEntry{"v1", []uint64{0, 1}})[:8], "malformed"},
		"hostile region count":      {wire.AppendUvarint(wire.AppendString(wire.AppendUvarint(wire.AppendHeader(nil, wire.TagArea), 1), "v1"), 1<<62), "malformed"},
	}
	for name, c := range cases {
		requireRejected(t, name, monitoredFleet(), c.blob, c.wantErr)
	}
}

func FuzzProfilerRestore(f *testing.F) {
	full, err := profiledFleet(f).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := NewProfiler().Snapshot()
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"x":{"id":"x","speed":{"n":0,"sum":0},"accel":{"n":0,"sum":0},"last":{}}}`))
	f.Add(encodeProfiles(profileWire{id: "x", speed: statsWire{n: 2, min: 1, max: 2, sum: 3, q: []float64{1, math.NaN()}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, profiledFleet(t), func() wiretest.Operator { return NewProfiler() }, data)
	})
}

func FuzzAreaRestore(f *testing.F) {
	full, err := monitoredFleet().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add([]byte(`{"v1":[0,1]}`))
	fresh := func() wiretest.Operator { return NewAreaMonitor(mkRegions(), 32) }
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, monitoredFleet(), fresh, data)
	})
}
