package main

import (
	"fmt"
	"time"

	"datacron/internal/core"
	"datacron/internal/gen"
	"datacron/internal/linkdisc"
	"datacron/internal/lowlevel"
	"datacron/internal/mobility"
	"datacron/internal/synopses"
)

// scale sizes a workload. full is what BENCHMARK.json measures; tiny is the
// ≈5 k-record smoke the package test runs.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// recoverySpec turns a workload's closed-loop runs into checkpointed runs
// with one injected crash, and its live run into a checkpointed run.
type recoverySpec struct {
	everyRecords int   // checkpoint trigger
	crashAt      int64 // record ordinal of the injected crash
}

// workload is one benchmark input: a fleet, the pipeline configuration it
// runs under, and the fixed rate of its open-loop phase.
type workload struct {
	name string
	why  string
	// rate is the offered load of the live phase in records per second; the
	// generator sends rate/1000 records every millisecond, whatever the
	// pipeline does.
	rate     func(scale) int
	input    func(seed int64, sc scale) input
	recovery func(scale) *recoverySpec
}

// input is what a workload hands the pipeline: the generated reports in the
// order they are offered, and the configuration.
type input struct {
	reports []mobility.Report
	cfg     core.Config
}

// region is the maritime area of interest every workload sails in.
var region = gen.AegeanRegion

var workloads = []workload{
	{
		name: "transit",
		why: "mixed AIS fleet on steady legs: few critical points, so the per-trajectory layers " +
			"(decode, area monitor, FLP, synopses) do most of the work and the merge almost none",
		rate:  func(sc scale) int { return pick(sc, 50_000, 10_000) },
		input: transitInput,
	},
	{
		name: "manoeuvre",
		why: "fishing fleet under tight synopses thresholds with CER, weather and 460 link statics: about half " +
			"the records become critical points, so the serial merge (rdfgen, rdf, msg, linkdisc, cer) dominates",
		rate:  func(sc scale) int { return pick(sc, 12_500, 10_000) },
		input: manoeuvreInput,
	},
	{
		name: "recovery",
		why: "transit's input through RunWithRecovery with a DirStore, a checkpoint every 60 000 records and one " +
			"injected crash: Snapshot/Restore/replay run beside Process, so fattened operator state shows as a loss",
		rate:  func(sc scale) int { return pick(sc, 50_000, 10_000) },
		input: transitInput,
		recovery: func(sc scale) *recoverySpec {
			return &recoverySpec{everyRecords: pick(sc, 60_000, 500), crashAt: int64(pick(sc, 200_000, 3_000))}
		},
	},
}

func pick(sc scale, full, tiny int) int {
	if sc == scaleTiny {
		return tiny
	}
	return full
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// baseConfig spells out every value core would otherwise default, so the
// shadow run loop and core read the same numbers.
func baseConfig() core.Config {
	return core.Config{
		Domain:         mobility.Maritime,
		Synopses:       synopses.DefaultMaritime(),
		Partitions:     4,
		PredictSteps:   8,
		SampleInterval: 10 * time.Second,
		Theta:          0.5,
		Link: linkdisc.Config{
			Extent: region, GridCols: 64, GridRows: 64,
			MaskResolution: 8, NearDistanceM: 5_000,
		},
	}
}

// areaStatics generates n protected areas and returns them as link-discovery
// statics and as monitored regions.
func areaStatics(seed int64, n int) ([]linkdisc.StaticEntity, []lowlevel.Region) {
	areas := gen.Areas(seed, gen.ProtectedArea, n, region, 3_000, 25_000)
	statics := make([]linkdisc.StaticEntity, len(areas))
	regions := make([]lowlevel.Region, len(areas))
	for i, a := range areas {
		statics[i] = linkdisc.StaticEntity{ID: a.ID, Geom: a.Geom}
		regions[i] = lowlevel.Region{ID: a.ID, Geom: a.Geom}
	}
	return statics, regions
}

// transitInput is the AIS steady state: 75 each of cargo, tanker, ferry and
// fishing vessels reporting every 10 s for 4 h (≈314 k records, ≈6 % of them
// critical points), 40 protected areas, no CER, no weather.
func transitInput(seed int64, sc scale) input {
	per := pick(sc, 75, 6)
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: seed, Region: region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Cargo: per, gen.Tanker: per, gen.Ferry: per, gen.Fishing: per},
	})
	dur := 4 * time.Hour
	if sc == scaleTiny {
		dur = 35 * time.Minute
	}
	cfg := baseConfig()
	cfg.Statics, cfg.Regions = areaStatics(seed, 40)
	return input{reports: sim.Run(dur), cfg: cfg}
}

// manoeuvreInput is the merge-heavy opposite: 300 zigzagging fishing vessels
// for 36 min (≈49 k records; the broker retains every published triple, so a
// longer run would mostly measure the collector walking that log) with heading and speed thresholds tight enough that about
// half the records are critical points, each costing a synopsis publish, ≈14
// triples, a link-discovery probe against 400 areas and 60 ports, and a CER
// step that forecasts. The symbol model is trained the way the dashboard
// experiment trains it: on the critical points of the first third of the
// input.
func manoeuvreInput(seed int64, sc scale) input {
	sim := gen.NewVesselSim(gen.VesselSimConfig{
		Seed: seed, Region: region, GapProb: 0.005,
		Counts: map[gen.VesselClass]int{gen.Fishing: pick(sc, 300, 24)},
	})
	dur := 36 * time.Minute
	if sc == scaleTiny {
		dur = 35 * time.Minute
	}
	reports := sim.Run(dur)

	cfg := baseConfig()
	cfg.Synopses.HeadingDeltaDeg = 3
	cfg.Synopses.SpeedRatio = 0.05
	cfg.Statics, cfg.Regions = areaStatics(seed, 400)
	for _, p := range gen.Ports(seed+1, 60, region) {
		cfg.Statics = append(cfg.Statics, linkdisc.StaticEntity{ID: p.ID, Geom: p.Pos})
	}
	cfg.Weather = gen.NewWeatherField(seed, gen.DefaultStart)
	cfg.Pattern = "change_in_heading change_in_heading"
	cfg.Alphabet = []string{
		string(synopses.TrajectoryStart), string(synopses.TrajectoryEnd),
		string(synopses.StopStart), string(synopses.StopEnd),
		string(synopses.SlowMotionStart), string(synopses.SlowMotionEnd),
		string(synopses.ChangeInHeading), string(synopses.SpeedChange),
		string(synopses.GapStart), string(synopses.GapEnd),
	}
	cfg.ModelOrder = 1
	trainCps, _ := synopses.Summarize(cfg.Synopses, reports[:len(reports)/3])
	cfg.TrainSymbols = make([]string, len(trainCps))
	for i, cp := range trainCps {
		cfg.TrainSymbols[i] = string(cp.Type)
	}
	return input{reports: reports, cfg: cfg}
}
