package cer

import (
	"bytes"
	"strings"
	"testing"

	"datacron/internal/gen"
	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

var snapAlphabet = []string{"a", "b", "c"}

// orderTwoForecaster is an order-2 "a c c" engine, fed nothing yet.
func orderTwoForecaster(t testing.TB) *Forecaster {
	t.Helper()
	p, err := ParsePattern("a c c")
	if err != nil {
		t.Fatal(err)
	}
	model := LearnModel(gen.NewMarkovSource(3, snapAlphabet, 2, 0.7).Generate(2_000), snapAlphabet, 2, 1)
	f, err := NewForecaster(p, snapAlphabet, model, 30, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fedForecaster has consumed a short stream, so its context is full.
func fedForecaster(t testing.TB) *Forecaster {
	f := orderTwoForecaster(t)
	for _, s := range strings.Fields("a b c a c") {
		f.Process(s)
	}
	return f
}

// encodeCursor writes a cursor in the snapshot layout, valid or not.
// Test-only.
func encodeCursor(state, pos int64, ctx ...string) []byte {
	buf := wire.AppendHeader(nil, wire.TagCER)
	buf = wire.AppendVarint(buf, state)
	buf = wire.AppendVarint(buf, pos)
	buf = wire.AppendUvarint(buf, uint64(len(ctx)))
	for _, s := range ctx {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

func TestForecasterSnapshotRoundTrip(t *testing.T) {
	f := fedForecaster(t)
	blob, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeCursor(int64(f.state), 5, "a", "c"); !bytes.Equal(blob, want) {
		t.Fatalf("Snapshot bytes differ from the documented layout:\n%x\n%x", blob, want)
	}
	g := orderTwoForecaster(t)
	if err := g.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, s := range strings.Fields("c a c c b a") {
		d1, fc1, ok1 := f.Process(s)
		d2, fc2, ok2 := g.Process(s)
		if d1 != d2 || fc1 != fc2 || ok1 != ok2 {
			t.Fatalf("restored engine diverged on %q: (%v %v %v) vs (%v %v %v)", s, d2, fc2, ok2, d1, fc1, ok1)
		}
	}
}

// TestRestoreRejectsUnreachableCursor asserts "error ⇒ unchanged" for every
// cursor Process cannot produce.
func TestRestoreRejectsUnreachableCursor(t *testing.T) {
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"state out of range":       {encodeCursor(99, 5, "a", "c"), "state 99 out of range"},
		"negative state":           {encodeCursor(-1, 5, "a", "c"), "out of range"},
		"context over model order": {encodeCursor(0, 5, "a", "b", "c"), "exceeds model order"},
		"negative position":        {encodeCursor(0, -3), "position -3"},
		"position below context":   {encodeCursor(0, 1, "a", "c"), "below context length"},
		"symbol outside alphabet":  {encodeCursor(0, 5, "a", "z"), `"z" not in the alphabet`},
		"JSON from before":         {[]byte(`{"state":0,"ctx":["a"],"pos":1}`), "not a binary snapshot"},
		"truncated":                {encodeCursor(0, 5, "a", "c")[:6], "malformed"},
		"hostile context count":    {wire.AppendUvarint(encodeCursor(0, 5)[:4], 1<<60), "malformed"},
	}
	for name, c := range cases {
		f := fedForecaster(t)
		before, _ := f.Snapshot()
		err := f.Restore(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
			continue
		}
		if after, _ := f.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the engine", name)
		}
	}
}

// TestRestoreCopiesContext: the restored context is the engine's own slice
// of the alphabet's strings, not a view of the blob.
func TestRestoreCopiesContext(t *testing.T) {
	blob := encodeCursor(0, 5, "a", "c")
	f := orderTwoForecaster(t)
	if err := f.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0
	}
	if got, _ := f.Snapshot(); !bytes.Equal(got, encodeCursor(0, 5, "a", "c")) {
		t.Fatalf("overwriting the blob changed the restored engine: %x", got)
	}
}

// windowForecasts is the reference forecast sequence: the model context is
// the last m symbols of the stream, unknown ones included, and a context
// holding an unknown symbol has no PMC state, so it yields no forecast.
func windowForecasts(t *testing.T, f *Forecaster, stream []string) []Forecast {
	t.Helper()
	m := f.pmc.model.Order()
	state := f.dfa.Start
	var out []Forecast
	for i, s := range stream {
		state = f.dfa.Step(state, s)
		if i+1 < m {
			continue
		}
		dist, err := f.pmc.WaitingTime(state, stream[i+1-m:i+1])
		if err != nil {
			continue
		}
		if st, e, p, found := ForecastInterval(dist, f.theta); found {
			out = append(out, Forecast{At: i, Start: st, End: e, Prob: p})
		}
	}
	return out
}

// TestUnknownSymbolSuspendsForecasts: a symbol outside the alphabet stops
// forecasting until m alphabet symbols follow it, exactly as a context
// window over every symbol would, and every cursor Process reaches on the
// way snapshots into a blob Restore accepts.
func TestUnknownSymbolSuspendsForecasts(t *testing.T) {
	stream := strings.Fields("a b c a c zz a c c b zz zz c a c c a b zz a")
	f := orderTwoForecaster(t)
	var got []Forecast
	for i, s := range stream {
		if _, fc, ok := f.Process(s); ok {
			got = append(got, fc)
		}
		blob, err := f.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := orderTwoForecaster(t).Restore(blob); err != nil {
			t.Fatalf("the cursor after symbol %d (%q) does not restore: %v", i, s, err)
		}
	}
	want := windowForecasts(t, orderTwoForecaster(t), stream)
	if len(want) == 0 {
		t.Fatal("reference produced no forecasts; the stream exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d forecasts, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forecast %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func FuzzCERRestore(f *testing.F) {
	full, err := fedForecaster(f).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := orderTwoForecaster(f).Snapshot()
	f.Add(full)
	f.Add(empty)
	f.Add(encodeCursor(2, 9, "c", "c"))
	f.Add([]byte(`{"state":1,"ctx":["a","c"],"pos":4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() wiretest.Operator { return orderTwoForecaster(t) }
		wiretest.CheckRestore(t, fedForecaster(t), fresh, data)
	})
}
