package core

import (
	"testing"
	"time"

	"datacron/internal/flp"
	"datacron/internal/gen"
)

// BenchmarkOperatorSnapshot is the root benchmark of the same name for the
// operator only core can reach: a shard worker's per-mover FLP predictor
// map after 300 vessels of four classes have reported for an hour.
func BenchmarkOperatorSnapshot(b *testing.B) {
	per := 75
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: 7, Region: region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Cargo: per, gen.Tanker: per, gen.Ferry: per, gen.Fishing: per},
	})
	const sample = 10 * time.Second
	ps := predictorsSnapshotter{preds: map[string]*flp.RMFStar{}, sample: sample}
	for _, r := range sim.Run(time.Hour) {
		if ps.preds[r.ID] == nil {
			ps.preds[r.ID] = flp.NewRMFStar(sample)
		}
		ps.preds[r.ID].Observe(r)
	}
	blob, err := ps.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("predictors/snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blob-B")
	})
	b.Run("predictors/restore", func(b *testing.B) {
		target := predictorsSnapshotter{preds: map[string]*flp.RMFStar{}, sample: sample}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := target.Restore(blob); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blob-B")
	})
}
