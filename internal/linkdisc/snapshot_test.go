package linkdisc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

func proximityConfig() Config {
	cfg := baseConfig(8)
	cfg.TemporalWindow = 10 * time.Minute
	return cfg
}

// busyDiscoverer has remembered points of several movers across a handful
// of grid cells, and counted its work.
func busyDiscoverer() *Discoverer {
	d := NewDiscoverer(proximityConfig(), testStatics())
	for i := 0; i < 40; i++ {
		p := geo.Destination(geo.Pt(23.6, 37.9), float64(i*37%360), float64(500+i*300))
		d.ProcessPoint(string(rune('a'+i%5)), t0.Add(time.Duration(i)*20*time.Second), p)
	}
	return d
}

func TestDiscovererSnapshotRoundTrip(t *testing.T) {
	d := busyDiscoverer()
	blob, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Snapshot(); !bytes.Equal(blob, again) {
		t.Fatal("two snapshots of one state differ")
	}
	restored := NewDiscoverer(proximityConfig(), testStatics())
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != d.Stats() {
		t.Errorf("restored stats %v, want %v", restored.Stats(), d.Stats())
	}
	at := t0.Add(15 * time.Minute)
	p := geo.Pt(23.61, 37.91)
	if a, b := d.ProcessPoint("z", at, p), restored.ProcessPoint("z", at, p); len(a) != len(b) {
		t.Fatalf("after restore %d links, original %d", len(b), len(a))
	}
	sa, _ := d.Snapshot()
	sb, _ := restored.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Error("restored discoverer diverged")
	}
}

// cellWire is one cell of the snapshot layout, and encodeRecent writes
// cells exactly as Snapshot does (with zero counters). Test-only.
type cellWire struct {
	cell uint64
	ids  []string
}

func encodeRecent(cells ...cellWire) []byte {
	buf := wire.AppendHeader(nil, wire.TagLinkdisc)
	buf = append(buf, 0, 0, 0, 0) // zero counters
	buf = wire.AppendUvarint(buf, uint64(len(cells)))
	for _, c := range cells {
		buf = wire.AppendUvarint(buf, c.cell)
		buf = wire.AppendUvarint(buf, uint64(len(c.ids)))
		for _, id := range c.ids {
			buf = wire.AppendString(buf, id)
			buf = wire.AppendFloat64(buf, 23.6)
			buf = wire.AppendFloat64(buf, 37.9)
			buf = wire.AppendTime(buf, t0)
		}
	}
	return buf
}

func TestDiscovererRestoreRejectsCorruptBlobs(t *testing.T) {
	cells := uint64(proximityConfig().GridCols * proximityConfig().GridRows)
	valid := encodeRecent(cellWire{7, []string{"a", "b"}}, cellWire{9, []string{"a"}})
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"cell out of range":    {encodeRecent(cellWire{cells, []string{"a"}}), "out of range"},
		"cells not ascending":  {encodeRecent(cellWire{9, []string{"a"}}, cellWire{7, []string{"b"}}), "ascending order"},
		"duplicate cell":       {encodeRecent(cellWire{9, []string{"a"}}, cellWire{9, []string{"b"}}), "ascending order"},
		"JSON from before":     {[]byte(`{"stats":{},"recent":{"7":[]}}`), "not a binary snapshot"},
		"truncated":            {valid[:len(valid)-3], "malformed"},
		"trailing bytes":       {append(append([]byte(nil), valid...), 1), "malformed"},
		"hostile cell count":   {wire.AppendUvarint(append(wire.AppendHeader(nil, wire.TagLinkdisc), 0, 0, 0, 0), math.MaxUint64), "malformed"},
		"hostile points count": {wire.AppendUvarint(wire.AppendUvarint(append(wire.AppendHeader(nil, wire.TagLinkdisc), 0, 0, 0, 0, 1), 7), 1<<40), "malformed"},
	}
	for name, c := range cases {
		d := busyDiscoverer()
		before, _ := d.Snapshot()
		err := d.Restore(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		if after, _ := d.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the discoverer", name)
		}
	}
	if err := NewDiscoverer(proximityConfig(), nil).Restore(valid); err != nil {
		t.Errorf("valid hand-encoded blob rejected: %v", err)
	}
}

func FuzzLinkdiscRestore(f *testing.F) {
	full, err := busyDiscoverer().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := NewDiscoverer(proximityConfig(), nil).Snapshot()
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"stats":{"Entities":1},"recent":{"7":[{"id":"a","pos":{"Lon":1,"Lat":2},"t":"2016-04-01T00:00:00Z"}]}}`))
	fresh := func() wiretest.Operator { return NewDiscoverer(proximityConfig(), testStatics()) }
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, busyDiscoverer(), fresh, data)
	})
}
