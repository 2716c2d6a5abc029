package core

import (
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/msg"
)

// BenchmarkOperatorSnapshot is the root benchmark of the same name for the
// operator only core can reach: a shard worker's mover table — synopses
// tracks, area memberships, profiles and FLP predictors — after 300 vessels
// of four classes have reported for one hour and for two. A mover record
// is a fixed size, so blob-B is flat between the two.
func BenchmarkOperatorSnapshot(b *testing.B) {
	for _, d := range []time.Duration{time.Hour, 2 * time.Hour} {
		per := 75
		sim := gen.NewVesselSim(gen.VesselSimConfig{
			Seed: 7, Region: region, GapProb: 0.005,
			Counts: map[gen.VesselClass]int{gen.Cargo: per, gen.Tanker: per, gen.Ferry: per, gen.Fishing: per},
		})
		p, _ := shardedMaritimePipeline(b, false, 1)
		w := p.newShardWorker(0, nil)
		for _, r := range sim.Run(d) {
			w.Process(workerIn{rec: &msg.Record{Key: r.ID, Value: r.AppendBinary(nil)}})
		}
		blob := w.snapshotMovers()
		b.Run("movers/snapshot/"+d.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.snapshotMovers()
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
		b.Run("movers/restore/"+d.String(), func(b *testing.B) {
			target := p.newShardWorker(0, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := target.restoreMovers(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "blob-B")
		})
	}
}
