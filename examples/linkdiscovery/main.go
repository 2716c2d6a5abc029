// Link discovery ablation: the cell-mask optimisation of Section 4.2.4 in
// isolation. It runs the same critical-point stream against the same region
// dataset with masks disabled and enabled, verifying identical relations
// and reporting the throughput difference — the paper's 23 → 123 entities/s
// comparison.
package main

import (
	"fmt"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/linkdisc"
	"datacron/internal/synopses"
)

func main() {
	region := geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}

	// Stationary entities: protected/fishing regions and ports.
	areas := gen.Areas(21, gen.FishingZone, 1_200, region, 1_000, 15_000)
	var statics []linkdisc.StaticEntity
	for _, a := range areas {
		statics = append(statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
	}
	fmt.Printf("indexing %d regions\n", len(statics))

	// Streaming entities: critical points from a vessel stream.
	sim := gen.NewVesselSim(gen.VesselSimConfig{Seed: 22, Region: region})
	cps, _ := synopses.Summarize(synopses.DefaultMaritime(), sim.Run(3*time.Hour))
	fmt.Printf("streaming %d critical points\n\n", len(cps))

	type outcome struct {
		links   int
		perSec  float64
		stats   linkdisc.Stats
		elapsed time.Duration
	}
	run := func(maskRes int) outcome {
		d := linkdisc.NewDiscoverer(linkdisc.Config{
			Extent: region, GridCols: 96, GridRows: 96,
			MaskResolution: maskRes, NearDistanceM: 5_000,
		}, statics)
		d.BuildMasks() // one-off cost, kept out of the streaming throughput
		start := time.Now()
		links := 0
		for _, cp := range cps {
			links += len(d.ProcessPoint(cp.ID, cp.Time, cp.Pos))
		}
		elapsed := time.Since(start)
		return outcome{
			links:   links,
			perSec:  float64(len(cps)) / elapsed.Seconds(),
			stats:   d.Stats(),
			elapsed: elapsed,
		}
	}

	noMask := run(0)
	withMask := run(8)

	fmt.Printf("%-12s %12s %14s %14s %12s\n", "config", "links", "entities/s", "comparisons", "maskSkips")
	fmt.Printf("%-12s %12d %14.1f %14d %12s\n", "no masks", noMask.links, noMask.perSec, noMask.stats.Comparisons, "-")
	fmt.Printf("%-12s %12d %14.1f %14d %12d\n", "masks", withMask.links, withMask.perSec, withMask.stats.Comparisons, withMask.stats.MaskSkips)
	fmt.Printf("\nspeedup: %.1fx with identical link sets (%v)\n",
		withMask.perSec/noMask.perSec, noMask.links == withMask.links)
}
