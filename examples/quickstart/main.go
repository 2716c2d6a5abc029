// Quickstart: the smallest end-to-end datAcron run. Generates half an hour
// of synthetic AIS traffic, streams it through the real-time layer, builds
// the knowledge graph and asks it one question.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"datacron/internal/core"
	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
)

func main() {
	region := geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}

	// 1. A pipeline with default (maritime) settings.
	pipeline, err := core.New(core.WithConfig(core.Config{Domain: mobility.Maritime}))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Thirty minutes of synthetic AIS traffic.
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 42, Region: region})
	reports := sim.Run(30 * time.Minute)
	fmt.Printf("generated %d AIS reports from %d vessels\n", len(reports), len(sim.Registry()))

	// 3. Stream them through the real-time layer.
	if err := pipeline.Ingest(context.Background(), reports); err != nil {
		log.Fatal(err)
	}
	summary, err := pipeline.RunRealTime(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("real-time layer:", summary)

	// 4. Batch layer: build the knowledge graph.
	kg, err := pipeline.BuildKnowledgeGraph(store.STCellConfig{
		Extent: region, Epoch: gen.DefaultStart,
	}, store.NewVerticalPartitioning())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge graph: %d triples\n", kg.Len())

	// 5. Ask it a question: which semantic nodes fell in the western half
	//    of the region during the first 15 minutes? The cell-embedding IDs
	//    prune most candidates without decoding geometry.
	nodes, stats, err := kg.StarJoin(store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
		},
		Rect:      geo.Rect{MinLon: region.MinLon, MinLat: region.MinLat, MaxLon: region.Center().Lon, MaxLat: region.MaxLat},
		TimeStart: gen.DefaultStart,
		TimeEnd:   gen.DefaultStart.Add(15 * time.Minute),
	}, store.EncodedPruning)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star query: %d nodes (pruned %d candidates by cell encoding)\n",
		len(nodes), stats.CellRejected)

	// 6. The live picture.
	snap := pipeline.Dashboard.Snapshot(time.Now())
	fmt.Printf("dashboard: %d movers tracked, %d critical points, %d predictions\n",
		len(snap.Positions), len(snap.Criticals), len(snap.Predictions))
}
