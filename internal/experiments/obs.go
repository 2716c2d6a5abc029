package experiments

import (
	"datacron/internal/core"
	"datacron/internal/obs"
	"datacron/internal/synopses"
)

// registry, when non-nil, is the shared metric registry every experiment
// pipeline attaches to, so the driver can report one metric block per
// experiment. Experiments run sequentially, so a single registry with a
// snapshot-and-reset between experiments gives per-experiment readings.
var registry *obs.Registry

// metered is the pipeline the running experiment built on the shared
// registry. MetricsRow reads its merged view, which adds the per-trajectory
// metrics of its shard workers' own registries.
var metered *core.Pipeline

// EnableMetrics switches the suite to a shared metric registry and returns
// it. Call once before running experiments (benchrunner does this for its
// -metrics flag); without it every pipeline keeps its own private registry.
func EnableMetrics() *obs.Registry {
	registry = obs.NewRegistry(nil)
	return registry
}

// newPipeline builds an experiment pipeline from cfg, attached to the shared
// registry when metrics reporting is on.
func newPipeline(cfg core.Config) (*core.Pipeline, error) {
	opts := []core.Option{core.WithConfig(cfg)}
	if registry != nil {
		opts = append(opts, core.WithObs(registry))
	}
	p, err := core.New(opts...)
	if err == nil && registry != nil {
		metered = p
	}
	return p, err
}

// Row is one experiment's metric reading, the line benchrunner -metrics
// prints.
type Row struct {
	Name             string
	Records          int64
	RecordsPerSec    float64
	CriticalPoints   int64
	EntitiesPerSec   float64
	CompressionRatio float64
}

// MetricsRow snapshots the shared registry into one Row and resets it so
// the next experiment starts a fresh window. ok is false without
// EnableMetrics or when the experiment built no pipeline.
func MetricsRow(name string) (Row, bool) {
	if metered == nil {
		return Row{}, false
	}
	s := metered.MergedSnapshot()
	registry.Reset()
	metered = nil
	syn := synopses.Stats{
		In:       s.Counter("synopses.in"),
		Dropped:  s.Counter("synopses.dropped"),
		Critical: s.Counter("synopses.critical"),
	}
	return Row{
		Name:             name,
		Records:          s.Counter("core.records"),
		RecordsPerSec:    s.Rate("core.records"),
		CriticalPoints:   s.Counter("synopses.critical"),
		EntitiesPerSec:   s.Rate("linkdisc.entities"),
		CompressionRatio: syn.CompressionRatio(),
	}, true
}
