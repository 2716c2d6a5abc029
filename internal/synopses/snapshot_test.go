package synopses

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"datacron/internal/mobility"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

// moverWire mirrors one mover of the generator's snapshot layout, and
// encodeGenerator writes movers exactly as Snapshot does — including states
// Process never produces, for the corrupt-blob table. Test-only.
type moverWire struct {
	id                   string
	flags                byte
	last                 mobility.Report
	rawLast              []byte // written in place of last's encoding when set
	history              []courseEntry
	stopSince, slowSince time.Time
	meanSpeedKn          float64
	climbing             int64
	groundAlt            float64
}

func encodeGenerator(stats Stats, movers ...moverWire) []byte {
	buf := wire.AppendHeader(nil, wire.TagSynopses)
	buf = wire.AppendVarint(buf, stats.In)
	buf = wire.AppendVarint(buf, stats.Dropped)
	buf = wire.AppendVarint(buf, stats.Critical)
	buf = wire.AppendUvarint(buf, uint64(len(movers)))
	for _, m := range movers {
		buf = wire.AppendString(buf, m.id)
		buf = append(buf, m.flags)
		if m.rawLast == nil {
			m.rawLast = m.last.AppendBinary(nil)
		}
		buf = wire.AppendBytes(buf, m.rawLast)
		buf = wire.AppendUvarint(buf, uint64(len(m.history)))
		for _, h := range m.history {
			buf = wire.AppendTime(buf, h.t)
			buf = wire.AppendFloat64(buf, h.c.x)
			buf = wire.AppendFloat64(buf, h.c.y)
		}
		buf = wire.AppendTime(buf, m.stopSince)
		buf = wire.AppendTime(buf, m.slowSince)
		buf = wire.AppendFloat64(buf, m.meanSpeedKn)
		buf = wire.AppendVarint(buf, m.climbing)
		buf = wire.AppendFloat64(buf, m.groundAlt)
	}
	return buf
}

// busyGenerator has processed a few hundred records of three wandering
// movers, so its state holds full histories and running stop/slow phases.
func busyGenerator() *Generator {
	g := NewGenerator(DefaultMaritime())
	for _, r := range wanderingStream(5, 3, 400) {
		g.Process(r)
	}
	return g
}

// TestGeneratorSnapshotLayout pins Snapshot's bytes to the documented
// layout, as written by the independent test encoder, and checks that a
// restored generator snapshots to the same bytes.
func TestGeneratorSnapshotLayout(t *testing.T) {
	g := busyGenerator()
	var movers []moverWire
	for _, id := range []string{"a", "b", "c"} {
		st := g.states[id]
		movers = append(movers, moverWire{
			id: id, flags: st.flags(), last: st.last, history: st.history,
			stopSince: st.stopSince, slowSince: st.slowSince,
			meanSpeedKn: st.meanSpeedKn, climbing: int64(st.climbing), groundAlt: st.groundAlt,
		})
	}
	blob, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeGenerator(g.stats, movers...); !bytes.Equal(blob, want) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", blob, want)
	}
	restored := NewGenerator(DefaultMaritime())
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.Snapshot(); !bytes.Equal(blob, again) {
		t.Fatal("restored generator snapshots differently")
	}
	// Both go on emitting the same critical points.
	for _, r := range wanderingStream(6, 3, 200) {
		r.Time = r.Time.Add(24 * time.Hour)
		if a, b := g.Process(r), restored.Process(r); len(a) != len(b) {
			t.Fatalf("after restore %d critical points, original %d", len(b), len(a))
		}
	}
}

func TestGeneratorRestoreRejectsCorruptBlobs(t *testing.T) {
	at := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	last := mobility.Report{ID: "a", Time: at, SpeedKn: 5}
	valid := moverWire{id: "a", flags: flagHasLast, last: last}
	overCap := moverWire{id: "b", last: last, history: make([]courseEntry, DefaultMaritime().HistoryLen+1)}
	climbing := valid
	climbing.climbing = 2
	flags := valid
	flags.flags = 0x80
	badReport := valid
	badReport.rawLast = last.AppendBinary(nil)
	badReport.rawLast[1] = 9 // an unknown report codec version
	hostile := wire.AppendHeader(nil, wire.TagSynopses)
	hostile = append(hostile, 0, 0, 0, 1) // zero counters, one mover
	hostile = wire.AppendString(hostile, "a")
	hostile = append(hostile, flagHasLast)
	hostile = wire.AppendBytes(hostile, last.AppendBinary(nil))
	hostile = wire.AppendUvarint(hostile, math.MaxUint64) // history count
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"history over the cap":    {encodeGenerator(Stats{}, valid, overCap), "history points"},
		"climbing regime":         {encodeGenerator(Stats{}, climbing), "climbing regime"},
		"unknown flag bits":       {encodeGenerator(Stats{}, flags), "malformed"},
		"negative counters":       {encodeGenerator(Stats{In: -1}, valid), "malformed"},
		"movers out of order":     {encodeGenerator(Stats{}, moverWire{id: "b", last: last}, valid), "ascending order"},
		"JSON from before":        {[]byte(`{"stats":{"In":1}}`), "not a binary snapshot"},
		"truncated":               {encodeGenerator(Stats{}, valid)[:20], "malformed"},
		"hostile history count":   {hostile, "malformed"},
		"report of a bad version": {encodeGenerator(Stats{}, badReport), "malformed"},
	}
	for name, c := range cases {
		g := busyGenerator()
		before, _ := g.Snapshot()
		err := g.Restore(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		if after, _ := g.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the generator", name)
		}
	}
}

func FuzzSynopsesRestore(f *testing.F) {
	full, err := busyGenerator().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := NewGenerator(DefaultMaritime()).Snapshot()
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/3])
	f.Add([]byte(`{"stats":{"In":1,"Dropped":0,"Critical":1}}`))
	fresh := func() wiretest.Operator { return NewGenerator(DefaultMaritime()) }
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, busyGenerator(), fresh, data)
	})
}
