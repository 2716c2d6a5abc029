package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/synopses"
)

// runAllocs runs the manoeuvre-like pipeline over a simulation of length d
// at the given shard count and returns the heap allocations RunRealTime
// made and the records it applied.
func runAllocs(t *testing.T, shards int, d time.Duration) (allocs uint64, records int64) {
	t.Helper()
	p := manoeuvrePipelineFor(t, shards, d)
	var sum Summary
	var err error
	allocs = mallocsDuring(func() { sum, err = p.RunRealTime(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	return allocs, sum.RawIn
}

// TestRunMarginalAllocs: past the run's set-up, the real-time layer
// allocates almost nothing per record, critical points included. The
// fixture is the manoeuvre-like run (CER, weather, link statics; about half
// the records are critical points); the marginal cost is a run over twice
// the span minus a run over the span, per extra record, so set-up cancels.
//
// What is left is the output's own storage, which the broker retains: the
// 32 KiB slabs of N-Triples lines and the 256-entry log segments, ≈0.05
// each per record at this fixture's eight or so output records per input
// record, plus the 1-in-256 sampled traces and the link masks of newly
// probed cells. A merge that allocated once per critical point would read
// ≈0.6 more.
func TestRunMarginalAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a1, n1 := runAllocs(t, shards, 35*time.Minute)
			a2, n2 := runAllocs(t, shards, 70*time.Minute)
			if n2 <= n1 {
				t.Fatalf("the longer run applied %d records, the shorter %d", n2, n1)
			}
			per := (float64(a2) - float64(a1)) / float64(n2-n1)
			t.Logf("%d and %d records: %d and %d allocations, %.4f per extra record", n1, n2, a1, a2, per)
			if per > 0.15 {
				t.Errorf("%.4f allocations per extra record, want at most 0.15", per)
			}
		})
	}
}

// transitPipelineFor builds the transit-like pipeline — a mixed fleet of
// cargo ships, tankers, ferries and fishing vessels on steady legs, 40
// monitored areas that double as link statics, no CER, no weather — with
// the reports of a simulation of length d ingested. Few of its records
// become critical points, so the raw record's own path dominates a run.
func transitPipelineFor(t *testing.T, shards int, d time.Duration) *Pipeline {
	t.Helper()
	const per = 8
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: 1, Region: region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Cargo: per, gen.Tanker: per, gen.Ferry: per, gen.Fishing: per},
	})
	cfg := Config{
		Domain:   mobility.Maritime,
		Synopses: synopses.DefaultMaritime(),
		Shards:   shards,
		Link: linkdisc.Config{
			Extent: region, GridCols: 64, GridRows: 64,
			MaskResolution: 8, NearDistanceM: 5_000,
		},
	}
	for _, a := range gen.Areas(1, gen.ProtectedArea, 40, region, 3_000, 25_000) {
		cfg.Statics = append(cfg.Statics, linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom})
		cfg.Regions = append(cfg.Regions, lowlevel.Region{ID: a.ID, Geom: a.Geom})
	}
	p, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(context.Background(), sim.Run(d)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunMarginalBytes: past the run's set-up, a raw record costs the
// real-time layer little more than the output it leads to. The fixture is
// transit-like, so most records yield no critical point; the marginal cost
// is a run over twice the span minus a run over the span, per extra record,
// so set-up cancels, as in TestRunMarginalAllocs.
//
// The run loop polls into two reused batches and hands each worker a
// pointer into them, so a polled record is copied once, out of the broker's
// log, and allocates nothing of its own. What is left, ≈155 B, is mostly
// the output the broker retains — the N-Triples lines and synopsis records
// of the critical points in arena slabs, and the log segments holding them
// — plus the movers' growing history and the 1-in-256 sampled traces. A
// poll that allocated a fresh batch reads ≈260: one 96 B msg.Record per
// polled record. The bound, 200 B, leaves ≈45 B of headroom and sits
// below that.
func TestRunMarginalBytes(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func(d time.Duration) (bytes uint64, records int64) {
				p := transitPipelineFor(t, shards, d)
				var sum Summary
				var err error
				bytes = bytesDuring(func() { sum, err = p.RunRealTime(context.Background()) })
				if err != nil {
					t.Fatal(err)
				}
				return bytes, sum.RawIn
			}
			b1, n1 := run(35 * time.Minute)
			b2, n2 := run(70 * time.Minute)
			if n2 <= n1 {
				t.Fatalf("the longer run applied %d records, the shorter %d", n2, n1)
			}
			per := (float64(b2) - float64(b1)) / float64(n2-n1)
			t.Logf("%d and %d records: %d and %d bytes, %.1f per extra record", n1, n2, b1, b2, per)
			if per > 200 {
				t.Errorf("%.1f bytes per extra record, want at most 200", per)
			}
		})
	}
}

// bytesDuring returns the bytes of heap f allocates.
func bytesDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
