package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

var region = geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}

func maritimePipeline(t *testing.T, withCER bool, extra ...Option) (*Pipeline, []mobility.Report) {
	t.Helper()
	return shardedMaritimePipeline(t, withCER, 1, extra...)
}

// shardedMaritimePipeline is maritimePipeline with an explicit shard
// count; the shard determinism tests compare runs across counts. Extra
// options are appended after the config.
func shardedMaritimePipeline(t testing.TB, withCER bool, shards int, extra ...Option) (*Pipeline, []mobility.Report) {
	t.Helper()
	areas := gen.Areas(5, gen.ProtectedArea, 40, region, 3_000, 25_000)
	ports := gen.Ports(6, 30, region)
	var statics []linkdisc.StaticEntity
	var regions []lowlevel.Region
	for _, a := range areas {
		statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
		regions = append(regions, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	for _, p := range ports {
		statics = append(statics, linkdisc.StaticEntity{ID: p.ID, Geom: p.Pos})
	}
	cfg := Config{
		Domain: mobility.Maritime,
		Link: linkdisc.Config{
			Extent: region, GridCols: 64, GridRows: 64,
			MaskResolution: 8, NearDistanceM: 5_000,
		},
		Statics: statics,
		Regions: regions,
	}
	if withCER {
		// Train the symbol model on a synthetic critical-type stream.
		src := gen.NewMarkovSource(4, criticalAlphabet(), 1, 0.5)
		cfg.Pattern = "change_in_heading change_in_heading"
		cfg.Alphabet = criticalAlphabet()
		cfg.ModelOrder = 1
		cfg.Theta = 0.4
		cfg.TrainSymbols = src.Generate(50_000)
	}
	cfg.Shards = shards
	p, err := New(append([]Option{WithConfig(cfg)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 77, Region: region, GapProb: 0.005})
	reports := sim.Run(2 * time.Hour)
	return p, reports
}

// withConfigEdit edits the Config an earlier WithConfig set: a test's
// variation on shardedMaritimePipeline's fixture.
func withConfigEdit(edit func(*Config)) Option {
	return func(o *options) { edit(&o.cfg) }
}

func criticalAlphabet() []string {
	return []string{
		string(synopses.TrajectoryStart), string(synopses.TrajectoryEnd),
		string(synopses.StopStart), string(synopses.StopEnd),
		string(synopses.SlowMotionStart), string(synopses.SlowMotionEnd),
		string(synopses.ChangeInHeading), string(synopses.SpeedChange),
		string(synopses.GapStart), string(synopses.GapEnd),
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.RawIn != int64(len(reports)) {
		t.Errorf("raw in = %d, want %d", sum.RawIn, len(reports))
	}
	if sum.CriticalPoints == 0 {
		t.Fatal("no critical points")
	}
	if sum.Compression < 0.5 {
		t.Errorf("compression = %.2f", sum.Compression)
	}
	if sum.Triples == 0 {
		t.Error("no triples produced")
	}
	if sum.Predictions == 0 {
		t.Error("no FLP predictions")
	}
	// Dashboard has the fleet.
	snap := p.Dashboard.Snapshot(time.Now())
	if len(snap.Positions) < 10 {
		t.Errorf("dashboard positions = %d", len(snap.Positions))
	}
	if len(snap.Criticals) == 0 {
		t.Error("dashboard criticals empty")
	}
	// Profiler collected per-trajectory statistics.
	ids := p.Profiler().MoverIDs()
	if len(ids) < 10 {
		t.Errorf("profiler movers = %d", len(ids))
	}
	prof := p.Profiler().Profile(ids[0])
	if prof.Speed.N() == 0 {
		t.Error("no speed stats")
	}
}

func TestPipelineKnowledgeGraph(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}
	kg, err := p.BuildKnowledgeGraph(store.STCellConfig{
		Extent: region, Cols: 32, Rows: 32,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}, store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	if kg.Len() == 0 {
		t.Fatal("empty knowledge graph")
	}
	// Star query: semantic nodes in a spatio-temporal window.
	q := store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropSpeed, Obj: nil},
		},
		Rect:      region,
		TimeStart: gen.DefaultStart,
		TimeEnd:   gen.DefaultStart.Add(2 * time.Hour),
	}
	for _, plan := range []store.Plan{store.PostFilter, store.EncodedPruning} {
		got, _, err := kg.StarJoin(q, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Errorf("%v: no results", plan)
		}
	}
	// Both plans agree.
	a, _, _ := kg.StarJoin(q, store.PostFilter)
	b, _, _ := kg.StarJoin(q, store.EncodedPruning)
	if len(a) != len(b) {
		t.Errorf("plans disagree: %d vs %d", len(a), len(b))
	}
}

func TestPipelineWeatherEnrichment(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	p2, err := New(WithConfig(Config{
		Domain:  mobility.Maritime,
		Weather: gen.NewWeatherField(7, gen.DefaultStart),
	}))
	if err != nil {
		t.Fatal(err)
	}
	_ = p // plain pipeline already covered elsewhere
	if err := p2.Ingest(context.Background(), reports[:2000]); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}
	kg, err := p2.BuildKnowledgeGraph(store.STCellConfig{
		Extent: region, Epoch: gen.DefaultStart,
	}, store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	// Every semantic node carries wind-speed and wave-height annotations.
	nodes, _, err := kg.Query(`SELECT ?n WHERE { ?n rdf:type dtc:SemanticNode . ?n dtc:windSpeed ?w }`, store.PostFilter)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := kg.Query(`SELECT ?n WHERE { ?n rdf:type dtc:SemanticNode }`, store.PostFilter)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(nodes) != len(all) {
		t.Errorf("wind annotations on %d of %d nodes", len(nodes), len(all))
	}
}

func TestPipelineWithCER(t *testing.T) {
	p, reports := maritimePipeline(t, true)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Forecasts == 0 && sum.Detections == 0 {
		t.Error("CER produced neither forecasts nor detections")
	}
}

func TestPipelineLinksFlow(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Links == 0 {
		t.Skip("no spatial links in this run (possible with sparse areas)")
	}
	recs, err := p.Broker.Drain(TopicLinks)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != sum.Links {
		t.Errorf("links topic has %d records, summary says %d", len(recs), sum.Links)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := New(WithConfig(Config{Pattern: "((", Alphabet: []string{"a"}})); err == nil {
		t.Error("bad pattern should fail")
	}
	if _, err := New(WithConfig(Config{
		Pattern: "a", Alphabet: []string{"a"}, Theta: -3,
	})); err == nil {
		t.Error("bad theta should fail")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{RawIn: 10, CriticalPoints: 2, Compression: 0.8}
	if str := s.String(); str == "" {
		t.Error("empty summary string")
	} else if want := "raw=10"; !contains(str, want) {
		t.Errorf("summary %q missing %q", str, want)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestCriticalPointWireFormat(t *testing.T) {
	cp := synopses.CriticalPoint{
		Report: mobility.Report{ID: "v", Time: gen.DefaultStart, Pos: geo.Pt(23, 37), SpeedKn: 9, Heading: 10},
		Type:   synopses.SpeedChange,
		Delta:  0.4,
	}
	got, err := synopses.UnmarshalCriticalPoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != cp {
		t.Errorf("round trip: %+v != %+v", got, cp)
	}
	if _, err := synopses.UnmarshalCriticalPoint([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	// Cancelling the context while the layer waits for input must
	// terminate the run with the context error, not hang.
	p, _ := maritimePipeline(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.RunRealTime(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled run should return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pipeline did not terminate")
	}
}

func TestPipelineLiveStreaming(t *testing.T) {
	// The real-time layer must work against a live producer, not only a
	// pre-closed log: start RunRealTime first, feed reports concurrently,
	// then close the topic and collect the summary.
	p, reports := maritimePipeline(t, false)
	type result struct {
		sum Summary
		err error
	}
	done := make(chan result, 1)
	go func() {
		sum, err := p.RunRealTime(context.Background())
		done <- result{sum, err}
	}()
	go func() {
		for _, r := range reports {
			if _, err := p.Broker.Produce(context.Background(), TopicRaw, r.ID, r.AppendBinary(nil), r.Time); err != nil {
				t.Errorf("produce: %v", err)
				return
			}
		}
		if err := p.Broker.CloseTopic(TopicRaw); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.sum.RawIn != int64(len(reports)) {
			t.Errorf("raw = %d, want %d", res.sum.RawIn, len(reports))
		}
		if res.sum.CriticalPoints == 0 {
			t.Error("no critical points in live mode")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live pipeline did not terminate")
	}
}

func TestPipelineDeterministicSummary(t *testing.T) {
	run := func() Summary {
		p, reports := maritimePipeline(t, false)
		if err := p.Ingest(context.Background(), reports); err != nil {
			t.Fatal(err)
		}
		sum, err := p.RunRealTime(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("summaries differ:\n%v\n%v", a, b)
	}
}
