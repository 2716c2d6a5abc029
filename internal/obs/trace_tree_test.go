package obs

import (
	"testing"
	"time"
)

func TestSpanTreeParentLinkageAndAttrs(t *testing.T) {
	clk := NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tr := NewTracer(clk, 16)

	root := tr.StartSpan("record", Attr{Key: "mover", Value: "m1"}, Attr{Key: "partition", Value: "2"})
	clk.Advance(time.Millisecond)
	decode := root.Child("decode", Attr{Key: "shard", Value: "0"})
	clk.Advance(2 * time.Millisecond)
	decode.End()
	emit := root.Child("emit")
	clk.Advance(time.Millisecond)
	emit.End()
	root.End()

	recs := tr.Recent()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	// Completion order: children complete before their parent, so the root
	// is last and every Parent reference points backwards in the slice.
	if recs[0].Name != "decode" || recs[1].Name != "emit" || recs[2].Name != "record" {
		t.Fatalf("completion order = %s,%s,%s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	rootRec := recs[2]
	if rootRec.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rootRec.Parent)
	}
	for _, rec := range recs[:2] {
		if rec.Parent != rootRec.ID {
			t.Errorf("%s parent = %d, want root %d", rec.Name, rec.Parent, rootRec.ID)
		}
	}
	if len(rootRec.Attrs) != 2 || rootRec.Attrs[0] != (Attr{Key: "mover", Value: "m1"}) {
		t.Errorf("root attrs = %+v", rootRec.Attrs)
	}
	if len(recs[0].Attrs) != 1 || recs[0].Attrs[0] != (Attr{Key: "shard", Value: "0"}) {
		t.Errorf("decode attrs = %+v", recs[0].Attrs)
	}
	if recs[0].Duration != 2*time.Millisecond {
		t.Errorf("decode duration = %v, want 2ms", recs[0].Duration)
	}
}

func TestChildAtBackdatesDwell(t *testing.T) {
	clk := NewManualClock(time.Date(2026, 1, 1, 0, 0, 10, 0, time.UTC))
	tr := NewTracer(clk, 16)

	root := tr.Start("record")
	eventTime := clk.Now().Add(-3 * time.Second)
	dwell := root.ChildAt("ingest", eventTime)
	dwell.End()
	root.End()

	recs := tr.Recent()
	if len(recs) != 2 || recs[0].Name != "ingest" {
		t.Fatalf("spans = %+v", recs)
	}
	if !recs[0].Start.Equal(eventTime) || recs[0].Duration != 3*time.Second {
		t.Errorf("dwell span start=%v duration=%v, want start=eventTime duration=3s",
			recs[0].Start, recs[0].Duration)
	}
}

// TestRecentWraparoundOldestFirst pins the flight-recorder ordering
// contract: after the ring wraps, Recent still returns spans in completion
// order, oldest first.
func TestRecentWraparoundOldestFirst(t *testing.T) {
	tr := NewTracer(NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)), 16)
	for i := 0; i < 25; i++ {
		tr.Start("s").End()
	}
	recs := tr.Recent()
	if len(recs) != 16 {
		t.Fatalf("ring retained %d spans, want 16", len(recs))
	}
	// 25 spans completed; the ring holds the last 16, IDs 10..25 ascending.
	for i, rec := range recs {
		if want := int64(10 + i); rec.ID != want {
			t.Fatalf("recs[%d].ID = %d, want %d (oldest-first across wraparound)", i, rec.ID, want)
		}
	}
}

func TestZeroSpanTreeNoops(t *testing.T) {
	var zero Span
	child := zero.Child("decode")
	grand := child.ChildAt("ingest", time.Now(), Attr{Key: "k", Value: "v"})
	if child.ID() != 0 || grand.ID() != 0 {
		t.Error("children of the zero span must be zero spans")
	}
	grand.End()
	child.End()
	zero.End() // must not panic

	var nilTracer *Tracer
	if sp := nilTracer.StartSpan("x", Attr{Key: "k", Value: "v"}); sp.ID() != 0 {
		t.Error("nil tracer must hand out the zero span")
	}
	if recs := nilTracer.Recent(); recs != nil {
		t.Errorf("nil tracer Recent = %v, want nil", recs)
	}
}
