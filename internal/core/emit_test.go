package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datacron/internal/cer"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/rdfgen"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

func triplesBroker(t testing.TB) *msg.Broker {
	t.Helper()
	b := msg.NewBroker()
	if err := b.CreateTopic(TopicTriples, 4); err != nil {
		t.Fatal(err)
	}
	return b
}

// fixturePoint is the critical point of seq of mover id.
func fixturePoint(seq int, id string) *synopses.CriticalPoint {
	return &synopses.CriticalPoint{Type: synopses.ChangeInHeading, Report: mobility.Report{
		ID: id, Time: gen.DefaultStart.Add(time.Duration(seq) * time.Second),
		Pos: geo.Pt(23.5+float64(seq)*1e-4, 37.9), SpeedKn: 11.5, Heading: 270,
	}}
}

// pointTriples is v-17's point of seq with weather enrichment as the
// generic generator builds it: 11 template triples plus two annotations.
func pointTriples(seq int) []rdf.Triple {
	cp := fixturePoint(seq, "v-17")
	triples := rdfgen.CriticalPointGenerator().Generate(rdfgen.CriticalPointRecord(seq, *cp))
	node := ontology.NodeIRI(cp.ID, seq)
	return append(triples,
		rdf.Triple{S: node, P: ontology.PropWindSpeed, O: rdf.Float(7.25)},
		rdf.Triple{S: node, P: ontology.PropWaveHeight, O: rdf.Float(1.5)})
}

// renderPoint renders mover id's point of seq into g as the run loop does,
// with the weather pointTriples carries.
func renderPoint(g *rdfgen.PointGraph, seq int, id string) *rdfgen.PointGraph {
	row := rdfgen.PointRow{Seq: seq, Point: fixturePoint(seq, id), Weather: true, Wind: 7.25, Wave: 1.5}
	rdfgen.NewPointRenderer().Render(g, &row)
	return g
}

// publisher is a merge whose output goes to b, for driving its triple
// emit alone.
func publisher(b *msg.Broker) *merge { return &merge{p: &Pipeline{Broker: b}} }

// publish stages g's records stamped ts and flushes them: the run loop's
// triple emit of one critical point.
func publish(ctx context.Context, m *merge, g *rdfgen.PointGraph, ts time.Time) error {
	m.stageTriples(g, ts)
	return m.flushBatch(ctx)
}

// TestPublishMatchesPerTripleProduce: one batch per rendered point leaves
// the triples topic record for record what one Produce per generated triple
// left — same keys (so same partitions and offsets), same bytes, same times.
func TestPublishMatchesPerTripleProduce(t *testing.T) {
	ctx := context.Background()
	batched, single := triplesBroker(t), triplesBroker(t)
	pub := publisher(batched)
	var g rdfgen.PointGraph
	for seq := 0; seq < 40; seq++ {
		ts := gen.DefaultStart.Add(time.Duration(seq) * time.Minute)
		if err := publish(ctx, pub, renderPoint(&g, seq, "v-17"), ts); err != nil {
			t.Fatal(err)
		}
		for _, tr := range pointTriples(seq) {
			if _, err := single.Produce(ctx, TopicTriples, tr.S.Key(), []byte(tr.String()), ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := batched.Drain(TopicTriples)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Drain(TopicTriples)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 40*13 {
		t.Fatalf("batched log has %d records, per-triple log %d, want %d", len(got), len(want), 40*13)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Partition != w.Partition || g.Offset != w.Offset || g.Key != w.Key ||
			string(g.Value) != string(w.Value) || !g.Time.Equal(w.Time) {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestPublishArenaValuesAreStable: the broker keeps the values it is handed,
// so later publishes — across slab boundaries, and around graphs too large
// for a slab's remainder or for any slab — must leave earlier ones untouched.
func TestPublishArenaValuesAreStable(t *testing.T) {
	ctx := context.Background()
	b := triplesBroker(t)
	pub := publisher(b)
	// A mover ID appears in every line of its graph, so a long one makes a
	// large graph: renderSized renders one whose lines take at least n
	// bytes, and at most a line per triple more.
	var short rdfgen.PointGraph
	renderPoint(&short, 0, "v")
	perChar := len(renderPoint(&rdfgen.PointGraph{}, 0, "vv").Lines) - len(short.Lines)
	renderSized := func(n int) *rdfgen.PointGraph {
		return renderPoint(&rdfgen.PointGraph{}, 0, strings.Repeat("v", 1+(n-len(short.Lines)+perChar-1)/perChar))
	}
	// want holds each key's lines in publish order.
	want := map[string][]string{}
	published := 0
	publishGraph := func(g *rdfgen.PointGraph) {
		t.Helper()
		for _, l := range g.Triples {
			key := string(g.Keys[l.KeyStart:l.KeyEnd])
			want[key] = append(want[key], string(g.Lines[l.Start:l.End]))
		}
		published += len(g.Triples)
		if err := publish(ctx, pub, g, gen.DefaultStart); err != nil {
			t.Fatal(err)
		}
	}
	remainder := func() int { return cap(pub.arena.slab) - len(pub.arena.slab) }
	var g rdfgen.PointGraph
	publishGraph(renderPoint(&g, 0, "v-17"))
	fresh := renderSized(arenaSlab - 1000) // fits a fresh slab, not the remainder
	if len(fresh.Lines) <= remainder() || len(fresh.Lines) > arenaSlab {
		t.Fatalf("fixture graph of %d bytes must exceed the remainder %d and fit a %d-byte slab", len(fresh.Lines), remainder(), arenaSlab)
	}
	publishGraph(fresh)
	publishGraph(renderPoint(&g, 1, "v-17"))
	publishGraph(renderSized(2 * arenaSlab)) // larger than any slab
	slabs := 0
	for seq := 2; slabs < 3; seq++ { // run across three more slab boundaries
		before := remainder()
		publishGraph(renderPoint(&g, seq, "v-17"))
		if remainder() > before {
			slabs++
		}
	}
	recs, err := b.Drain(TopicTriples)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != published {
		t.Fatalf("log has %d records, published %d", len(recs), published)
	}
	// One key's records sit in one partition, in publish order.
	for _, r := range recs {
		q := want[r.Key]
		if len(q) == 0 || string(r.Value) != q[0] {
			t.Fatalf("retained value for key %.80s was overwritten or reordered:\n got %.120s", r.Key, r.Value)
		}
		want[r.Key] = q[1:]
		if cap(r.Value) != len(r.Value) {
			t.Fatalf("value has spare capacity %d: an append to it would write into its neighbour", cap(r.Value)-len(r.Value))
		}
	}
}

// TestArenaValuesDoNotAlias: every value an arena hands out has exactly
// its own bytes as capacity, so appending to one — by a broker consumer, or
// by mistake — reallocates instead of writing into the next.
func TestArenaValuesDoNotAlias(t *testing.T) {
	var a arena[byte]
	sizes := []int{10, 0, 7, arenaSlab - 20, 30, arenaSlab + 1, 5}
	var vals [][]byte
	for i, n := range sizes {
		v := a.alloc(n)
		if len(v) != 0 || cap(v) != n {
			t.Fatalf("alloc(%d) = len %d cap %d, want len 0 cap %d", n, len(v), cap(v), n)
		}
		vals = append(vals, append(v, strings.Repeat(string(rune('a'+i)), n)...))
	}
	vals = append(vals, a.clone([]byte("tail")))
	want := make([]string, len(vals))
	for i, v := range vals {
		want[i] = string(v)
	}
	for i, v := range vals {
		_ = append(v, "overwrite"...)
		for j, w := range vals {
			if string(w) != want[j] {
				t.Fatalf("appending to value %d changed value %d: %q", i, j, w)
			}
		}
	}
}

// TestCERNotesMatchSprintf pins the detection and forecast notes to the
// fmt.Sprintf rendering they replaced, byte for byte: the forecast note is
// a TopicEvents value.
func TestCERNotesMatchSprintf(t *testing.T) {
	athens := time.FixedZone("EET", 2*3600)
	times := []time.Time{gen.DefaultStart, gen.DefaultStart.Add(37*time.Hour + 59*time.Second + 999), time.Date(2016, 4, 1, 3, 4, 5, 0, athens)}
	for _, ts := range times {
		want := fmt.Sprintf("%s: pattern detected at %s", "227006760", ts.Format(time.RFC3339))
		if got := string(appendDetectionNote(nil, "227006760", ts)); got != want {
			t.Errorf("detection note = %q, want %q", got, want)
		}
	}
	forecasts := []cer.Forecast{
		{Start: 1, End: 1, Prob: 1},
		{Start: 2, End: 14, Prob: 0.005},
		{Start: 3, End: 300, Prob: 0.995},
		{Start: 1, End: 5, Prob: 0.125},
		{Start: 10, End: 1000000, Prob: 0.4444},
		{Start: 0, End: -1, Prob: 0},
	}
	for _, fc := range forecasts {
		for _, id := range []string{"v-1", ""} {
			want := fmt.Sprintf("%s: completion expected in %d-%d events (p=%.2f)", id, fc.Start, fc.End, fc.Prob)
			if got := string(appendForecastNote([]byte("x"), id, fc)[1:]); got != want {
				t.Errorf("forecast note = %q, want %q", got, want)
			}
		}
	}
}

func TestPublishAllocations(t *testing.T) {
	ctx := context.Background()
	b := triplesBroker(t)
	pub := publisher(b)
	g := renderPoint(&rdfgen.PointGraph{}, 3, "v-17")
	if len(g.Triples) != 13 {
		t.Fatalf("fixture point has %d triples, want 13", len(g.Triples))
	}
	publishOne := func() {
		if err := publish(ctx, pub, g, gen.DefaultStart); err != nil {
			t.Fatal(err)
		}
	}
	publishOne() // sizes the scratch
	// One key string per send and the amortised shares of a slab and of the
	// partition logs' growth: a constant, where the per-triple path made
	// three allocations for each of the 13 triples.
	if n := testing.AllocsPerRun(200, publishOne); n > 8 {
		t.Errorf("publishing a 13-triple critical point made %v allocations, want at most 8", n)
	}
}

// BenchmarkPublishCriticalPoint stages one rendered 13-triple critical point
// and sends it as one broker batch, the run loop's triple emit.
func BenchmarkPublishCriticalPoint(b *testing.B) {
	broker := triplesBroker(b)
	pub := publisher(broker)
	g := renderPoint(&rdfgen.PointGraph{}, 4211, "v-17")
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := publish(ctx, pub, g, gen.DefaultStart); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			// The broker keeps what it is given; drop the log so a long
			// run measures publishing, not heap growth.
			b.StopTimer()
			for part := 0; part < 4; part++ {
				if err := broker.Truncate(TopicTriples, part, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(len(g.Triples)), "triples/op")
}

// TestPublishRefusedTriplesFailTheRun: a drop policy on the triples topic
// must not thin a critical point's graph silently.
func TestPublishRefusedTriplesFailTheRun(t *testing.T) {
	b := triplesBroker(t)
	if err := b.LimitTopic(TopicTriples, msg.TopicLimit{Capacity: 2, Policy: msg.DropNewest}); err != nil {
		t.Fatal(err)
	}
	err := publish(context.Background(), publisher(b), renderPoint(&rdfgen.PointGraph{}, 0, "v-17"), gen.DefaultStart)
	if !errors.Is(err, msg.ErrTopicFull) {
		t.Fatalf("publishing on a full drop-newest topic = %v, want ErrTopicFull", err)
	}
}

// TestUnparsableTripleRecordsAreCounted: the batch layer skips a record that
// is not an N-Triples line, and says so.
func TestUnparsableTripleRecordsAreCounted(t *testing.T) {
	ctx := context.Background()
	p, err := New(WithObs(obs.NewRegistry(nil)))
	if err != nil {
		t.Fatal(err)
	}
	good := renderPoint(&rdfgen.PointGraph{}, 0, "v-17")
	if err := publish(ctx, publisher(p.Broker), good, gen.DefaultStart); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"not a triple", "", "# comment"} {
		if _, err := p.Broker.Produce(ctx, TopicTriples, "junk", []byte(junk), gen.DefaultStart); err != nil {
			t.Fatal(err)
		}
	}
	kg, err := p.BuildKnowledgeGraph(store.STCellConfig{Extent: region, Epoch: gen.DefaultStart}, store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	if kg.Len() != len(good.Triples) {
		t.Errorf("knowledge graph holds %d triples, want the %d parsable ones", kg.Len(), len(good.Triples))
	}
	if got := p.Obs().Snapshot().Counter("core.triples.unparsable"); got != 3 {
		t.Errorf("core.triples.unparsable = %d, want 3", got)
	}
	var sb strings.Builder
	n, err := p.ExportTriples(&sb)
	if err != nil || n != int64(len(good.Triples)) {
		t.Errorf("ExportTriples = %d, %v; want %d", n, err, len(good.Triples))
	}
}
