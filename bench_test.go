// Package datacron_test holds the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper (regenerating the
// measurement inside the timing loop), plus component micro-benchmarks for
// the ablations called out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The same experiments can be run with human-readable output through
// cmd/benchrunner.
package datacron_test

import (
	"context"
	"io"
	"testing"
	"time"

	"datacron/internal/cer"
	"datacron/internal/checkpoint"
	"datacron/internal/core"
	"datacron/internal/experiments"
	"datacron/internal/flp"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/msg"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/rdfgen"
	"datacron/internal/store"
	"datacron/internal/synopses"
	"datacron/internal/tp"
)

// --- Paper tables and figures -------------------------------------------

func BenchmarkTable1Sources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynopsesCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSynopses(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRDFGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRDFGen(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLinkDiscovery(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreStarJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStore(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMFStarAccuracy(b *testing.B) { // Figure 5(a)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5a(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridHMM(b *testing.B) { // Figure 5(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5b(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventForecastPrecision(b *testing.B) { // Figure 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVAWorkflows(b *testing.B) { // Figures 10-12
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFig11(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFig12(io.Discard, experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks and ablations ----------------------------

func benchReports(b *testing.B) []mobility.Report {
	b.Helper()
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 7, Region: experiments.Region})
	return sim.Run(time.Hour)
}

func BenchmarkSynopsesGenerator(b *testing.B) {
	reports := benchReports(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := synopses.NewGenerator(synopses.DefaultMaritime())
		for _, r := range reports {
			g.Process(r)
		}
		g.Flush()
	}
	b.ReportMetric(float64(len(benchReports(b)))*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

func BenchmarkRDFGeneratorPerRecord(b *testing.B) {
	cp := synopses.CriticalPoint{
		Report: mobility.Report{ID: "v", Time: gen.DefaultStart,
			Pos: geo.Pt(23.6, 37.9), SpeedKn: 11, Heading: 88},
		Type: synopses.ChangeInHeading,
	}
	g := rdfgen.CriticalPointGenerator()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Generate(rdfgen.CriticalPointRecord(i, cp))
	}
}

// Link discovery ablation: masks on/off over the same workload.
func BenchmarkLinkDiscoveryMasks(b *testing.B) {
	areas := gen.DetailedAreas(5, gen.ProtectedArea, 300, experiments.Region, 2_000, 8_000, 100, 200)
	var statics []linkdisc.StaticEntity
	for _, a := range areas {
		statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
	}
	cps, _ := synopses.Summarize(synopses.DefaultMaritime(), benchReports(b))
	for _, cfg := range []struct {
		name    string
		maskRes int
	}{{"masks=off", 0}, {"masks=on", 8}} {
		b.Run(cfg.name, func(b *testing.B) {
			d := linkdisc.NewDiscoverer(linkdisc.Config{
				Extent: experiments.Region, MaskResolution: cfg.maskRes, NearDistanceM: 2_000,
			}, statics)
			d.BuildMasks()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := cps[i%len(cps)]
				d.ProcessPoint(cp.ID, cp.Time, cp.Pos)
			}
		})
	}
}

// Store ablation: layouts × plans on the same star query.
func BenchmarkStoreLayoutsAndPlans(b *testing.B) {
	const nNodes = 20_000
	cellCfg := store.STCellConfig{
		Extent: experiments.Region, Cols: 48, Rows: 48,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}
	var triples []rdf.Triple
	for i := 0; i < nNodes; i++ {
		node := rdf.NSDatAcron.IRI(string(rune('a'+i%26)) + "/bench/" + time.Duration(i).String())
		pos := geo.Pt(
			experiments.Region.MinLon+float64((i*7919)%1000)/1000*experiments.Region.Width(),
			experiments.Region.MinLat+float64((i*104729)%1000)/1000*experiments.Region.Height(),
		)
		ts := gen.DefaultStart.Add(time.Duration(i%(24*14)) * 30 * time.Minute)
		triples = append(triples,
			rdf.Triple{S: node, P: rdf.RDFType, O: ontology.ClassSemanticNode},
			rdf.Triple{S: node, P: ontology.PropAsWKT, O: rdf.WKT(pos.WKT())},
			rdf.Triple{S: node, P: ontology.PropAtTime, O: rdf.Time(ts)},
			rdf.Triple{S: node, P: ontology.PropSpeed, O: rdf.Float(float64(i % 25))},
		)
	}
	query := store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropSpeed, Obj: nil},
		},
		Rect:      geo.Rect{MinLon: 23, MinLat: 37, MaxLon: 25, MaxLat: 39},
		TimeStart: gen.DefaultStart.Add(24 * time.Hour),
		TimeEnd:   gen.DefaultStart.Add(72 * time.Hour),
	}
	layouts := map[string]func() store.Layout{
		"triples-table": func() store.Layout { return store.NewTripleTable(8) },
		"vertical":      func() store.Layout { return store.NewVerticalPartitioning() },
		"property":      func() store.Layout { return store.NewPropertyTable() },
	}
	for name, mk := range layouts {
		st := store.New(cellCfg, mk())
		st.Load(triples)
		for _, plan := range []store.Plan{store.PostFilter, store.EncodedPruning} {
			b.Run(name+"/"+plan.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := st.StarJoin(query, plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// turningTrack is a closed constant-turn-rate circuit (4° per 8 s report, 90
// reports a lap), so cycling through it keeps RMF* in its pattern-matching
// branch without a jump at the wrap.
func turningTrack(laps int) []mobility.Report {
	const speedMS, turnDeg, dt = 100.0, 4.0, 8 * time.Second
	reports := make([]mobility.Report, 0, 90*laps)
	pos, heading := geo.Pt(0, 45), 0.0
	for i := 0; i < cap(reports); i++ {
		reports = append(reports, mobility.Report{
			ID: "turning", Time: gen.DefaultStart.Add(time.Duration(i) * dt), Pos: pos,
			SpeedKn: speedMS / mobility.KnotsToMS, Heading: heading,
		})
		heading = geo.NormalizeHeading(heading + turnDeg)
		pos = geo.Destination(pos, heading, speedMS*dt.Seconds())
	}
	return reports
}

// benchSink keeps the compiler from discarding a benchmarked call's result.
var benchSink int

// FLP ablation: RMF window depth f and RMF* on the same flight stream, plus
// RMF* on a turning track, where every Predict runs the hold-out back-test
// over all four motion primitives.
func BenchmarkFLPPredictors(b *testing.B) {
	sim := gen.NewFlightSim(gen.FlightSimConfig{Seed: 3, NumFlights: 2, RoutePairs: [][2]int{{0, 1}}})
	_, flights := sim.Run()
	cases := []struct {
		name    string
		mk      func() flp.Predictor
		reports []mobility.Report
	}{
		{"rmf-f2", func() flp.Predictor { return flp.NewRMF(2) }, flights},
		{"rmf-f3", func() flp.Predictor { return flp.NewRMF(3) }, flights},
		{"rmf-f5", func() flp.Predictor { return flp.NewRMF(5) }, flights},
		{"rmf*", func() flp.Predictor { return flp.NewRMFStar(8 * time.Second) }, flights},
		{"rmf*-turning", func() flp.Predictor { return flp.NewRMFStar(8 * time.Second) }, turningTrack(10)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := c.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Observe(c.reports[i%len(c.reports)])
				benchSink += len(p.Predict(8))
			}
		})
	}
}

// Synopses per-record cost on the mixed vessel stream: the mean-course test
// and the other single-pass heuristics, on a generator rebuilt each pass.
func BenchmarkSynopsesProcess(b *testing.B) {
	reports := benchReports(b)
	var g *synopses.Generator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(reports)
		if j == 0 {
			g = synopses.NewGenerator(synopses.DefaultMaritime())
		}
		benchSink += len(g.Process(reports[j]))
	}
}

// In-situ statistics per-record cost: two running medians (speed,
// acceleration) per report, on a profiler rebuilt each pass.
func BenchmarkProfilerObserve(b *testing.B) {
	reports := benchReports(b)
	var pf *lowlevel.Profiler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(reports)
		if j == 0 {
			pf = lowlevel.NewProfiler()
		}
		pf.Observe(reports[j])
	}
}

// CER ablation: PMC order 1/2/3 build + forecast cost.
func BenchmarkPMCOrders(b *testing.B) {
	alphabet := []string{"n", "e", "s", "w"}
	src := gen.NewMarkovSource(1, alphabet, 2, 0.8)
	train := src.Generate(100_000)
	stream := src.Generate(10_000)
	pattern, err := cer.ParsePattern("n (n + e)* s")
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []int{1, 2, 3} {
		model := cer.LearnModel(train, alphabet, order, 1)
		b.Run("order="+string(rune('0'+order)), func(b *testing.B) {
			f, err := cer.NewForecaster(pattern, alphabet, model, 100, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(stream[i%len(stream)])
			}
		})
	}
}

// TP ablation: ERP distance cost by sequence length.
func BenchmarkERPDistance(b *testing.B) {
	mkSeq := func(n int) []tp.FeatureVec {
		out := make([]tp.FeatureVec, n)
		for i := range out {
			out[i] = tp.FeatureVec{float64(i), float64(i % 7), 1, 2}
		}
		return out
	}
	for _, n := range []int{8, 32, 128} {
		a, c := mkSeq(n), mkSeq(n)
		b.Run(time.Duration(n).String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp.ERP(a, c, tp.FeatureVec{}, nil)
			}
		})
	}
}

// Checkpoint ablation: the real-time layer with checkpointing off, on a
// wall-clock interval (1s, 100ms) and on a record count.
func BenchmarkCheckpointOverhead(b *testing.B) {
	reports := benchReports(b)
	configs := []struct {
		name     string
		interval time.Duration
		every    int
	}{
		{"off", 0, 0},
		{"interval=1s", time.Second, 0},
		{"interval=100ms", 100 * time.Millisecond, 0},
		{"every=256", 0, 256},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := core.New(core.WithConfig(core.Config{}))
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Ingest(context.Background(), reports); err != nil {
					b.Fatal(err)
				}
				var rc *core.RecoveryConfig
				if cfg.interval > 0 || cfg.every > 0 {
					cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
					if err != nil {
						b.Fatal(err)
					}
					rc = &core.RecoveryConfig{Checkpointer: cpr, Interval: cfg.interval, EveryRecords: cfg.every}
				}
				if _, err := p.RunWithRecovery(context.Background(), rc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(reports))*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// snapshotFleet is the state a checkpoint captures in the recovery workload,
// at a smaller scale: 300 vessels of four classes for an hour (≈110 k
// reports, ≈360 per mover), against 40 monitored areas.
func snapshotFleet(b *testing.B) ([]mobility.Report, []lowlevel.Region) {
	b.Helper()
	per := 75
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: 7, Region: experiments.Region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Cargo: per, gen.Tanker: per, gen.Ferry: per, gen.Fishing: per},
	})
	var regions []lowlevel.Region
	for _, a := range gen.Areas(7, gen.ProtectedArea, 40, experiments.Region, 3_000, 25_000) {
		regions = append(regions, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	return sim.Run(time.Hour), regions
}

// Checkpoint ablation, per operator: Snapshot and Restore of the profiler,
// synopses generator and area monitor after the generated fleet, with the
// blob size. (The per-mover FLP predictor map is core-private; its
// sub-benchmark is internal/core's BenchmarkOperatorSnapshot.)
func BenchmarkOperatorSnapshot(b *testing.B) {
	reports, regions := snapshotFleet(b)
	pf := lowlevel.NewProfiler()
	sg := synopses.NewGenerator(synopses.DefaultMaritime())
	am := lowlevel.NewAreaMonitor(regions, 64)
	for _, r := range reports {
		pf.Observe(r)
		sg.Process(r)
		am.Update(r)
	}
	ops := []struct {
		name  string
		op    checkpoint.Snapshotter
		fresh func() checkpoint.Snapshotter
	}{
		{"profiler", pf, func() checkpoint.Snapshotter { return lowlevel.NewProfiler() }},
		{"synopses", sg, func() checkpoint.Snapshotter { return synopses.NewGenerator(synopses.DefaultMaritime()) }},
		{"area", am, func() checkpoint.Snapshotter { return lowlevel.NewAreaMonitor(regions, 64) }},
	}
	for _, o := range ops {
		blob, err := o.op.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(o.name+"/snapshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := o.op.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
		b.Run(o.name+"/restore", func(b *testing.B) {
			target := o.fresh()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := target.Restore(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
	}
}

// Broker throughput: produce + consumer-group poll round trip.
func BenchmarkBrokerRoundTrip(b *testing.B) {
	broker := msg.NewBroker()
	if err := broker.CreateTopic("bench", 4); err != nil {
		b.Fatal(err)
	}
	cons, err := broker.NewConsumer("g", "bench", "m")
	if err != nil {
		b.Fatal(err)
	}
	defer cons.Close()
	reports := benchReports(b)
	payload := reports[0].Marshal()
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	consumed := 0
	for i := 0; i < b.N; i++ {
		r := reports[i%len(reports)]
		if _, err := broker.Produce(context.Background(), "bench", r.ID, payload, r.Time); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			recs, err := cons.Poll(ctx, 64)
			if err != nil {
				b.Fatal(err)
			}
			consumed += len(recs)
		}
	}
	_ = consumed
}

// --- Critical-point emit path --------------------------------------------

// benchPointTriples is one critical point's graph as the run loop builds it
// with weather enrichment: 11 template triples and two annotations.
func benchPointTriples(seq int) []rdf.Triple {
	cp := synopses.CriticalPoint{
		Report: mobility.Report{ID: "v-17", Time: gen.DefaultStart,
			Pos: geo.Pt(23.6, 37.9), SpeedKn: 11, Heading: 88},
		Type: synopses.ChangeInHeading,
	}
	node := ontology.NodeIRI(cp.ID, seq)
	return append(rdfgen.CriticalPointGenerator().Generate(rdfgen.CriticalPointRecord(seq, cp)),
		rdf.Triple{S: node, P: ontology.PropWindSpeed, O: rdf.Float(7.25)},
		rdf.Triple{S: node, P: ontology.PropWaveHeight, O: rdf.Float(1.5)})
}

// N-Triples encoding of one triple into a reused buffer.
func BenchmarkTripleAppend(b *testing.B) {
	triples := benchPointTriples(4211)
	buf := make([]byte, 0, 512)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = triples[i%len(triples)].AppendNT(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

// Rendering one critical point's graph — 11 template triples, two weather
// annotations and two links — to N-Triples lines and keys with the typed
// renderer, into a reused graph. Compare BenchmarkRDFGeneratorPerRecord plus
// 13 × BenchmarkTripleAppend for the generic path it replaces on the merge.
func BenchmarkRenderCriticalPoint(b *testing.B) {
	cp := synopses.CriticalPoint{
		Report: mobility.Report{ID: "v-17", Time: gen.DefaultStart,
			Pos: geo.Pt(23.6, 37.9), SpeedKn: 11, Heading: 88},
		Type: synopses.ChangeInHeading,
	}
	row := rdfgen.PointRow{Point: &cp, Weather: true, Wind: 7.25, Wave: 1.5, Links: []linkdisc.Link{
		{Source: cp.ID, Target: "natura-12", Relation: linkdisc.NearTo, Time: cp.Time},
		{Source: cp.ID, Target: "port-3", Relation: linkdisc.Within, Time: cp.Time},
	}}
	r := rdfgen.NewPointRenderer()
	var g rdfgen.PointGraph
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row.Seq = 4211 + i
		r.Render(&g, &row)
	}
	b.SetBytes(int64(len(g.Lines)))
}
