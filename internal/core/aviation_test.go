package core

import (
	"context"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

func TestPipelineAviationEndToEnd(t *testing.T) {
	p, err := New(WithConfig(Config{
		Domain:         mobility.Aviation,
		SampleInterval: 8 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	sim := gen.NewFlightSim(gen.FlightSimConfig{Seed: 55, NumFlights: 5})
	_, reports := sim.Run()
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.RawIn != int64(len(reports)) {
		t.Errorf("raw = %d, want %d", sum.RawIn, len(reports))
	}
	// The aviation synopsis must contain the flight-phase critical points.
	recs, err := p.Broker.Drain(TopicSynopses)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[synopses.CriticalType]int{}
	for _, rec := range recs {
		cp, err := synopses.UnmarshalCriticalPoint(rec.Value)
		if err != nil {
			t.Fatalf("bad synopsis record: %v", err)
		}
		counts[cp.Type]++
	}
	if counts[synopses.Takeoff] < 5 {
		t.Errorf("takeoffs = %d, want >= 5", counts[synopses.Takeoff])
	}
	if counts[synopses.Landing] < 5 {
		t.Errorf("landings = %d, want >= 5", counts[synopses.Landing])
	}
	if counts[synopses.ChangeInAltitude] < 10 {
		t.Errorf("altitude changes = %d", counts[synopses.ChangeInAltitude])
	}
	// KG over Iberia, queried via the text dialect.
	kg, err := p.BuildKnowledgeGraph(store.STCellConfig{
		Extent: gen.IberiaRegion, Cols: 48, Rows: 48,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}, store.NewPropertyTable())
	if err != nil {
		t.Fatal(err)
	}
	nodes, _, err := kg.Query(`
		SELECT ?n WHERE {
			?n rdf:type dtc:SemanticNode .
			?n dtc:speed ?s .
		}
		WITHIN(-10.0, 35.5, 4.5, 44.5)
		DURING("2016-04-01T00:00:00Z", "2016-04-03T00:00:00Z")
	`, store.EncodedPruning)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Error("no aviation nodes found by ST query")
	}
	// Trajectory parts can be derived from the archived synopsis.
	var cps []synopses.CriticalPoint
	for _, rec := range recs {
		cp, err := synopses.UnmarshalCriticalPoint(rec.Value)
		if err != nil {
			t.Fatalf("bad synopsis record: %v", err)
		}
		cps = append(cps, cp)
	}
	segs := synopses.SegmentCriticalPoints(cps)
	if len(segs) < 5 {
		t.Errorf("segments = %d, want >= 5 (one leg per flight)", len(segs))
	}
	// Lift one segment into the ontology and sanity-check the structure.
	g := rdf.NewGraph()
	seg := segs[0]
	seqs := make([]int, len(seg.Points))
	for i := range seg.Points {
		seqs[i] = i
	}
	g.AddAll(ontology.PartTriples(seg.MoverID, seg.Index, rdf.Time(seg.Start), rdf.Time(seg.End), seqs))
	if len(g.Subjects(rdf.RDFType, ontology.ClassTrajectoryPart)) != 1 {
		t.Error("trajectory part triples malformed")
	}
}
