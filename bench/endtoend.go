package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/core"
)

// runStats is what one closed-loop run of core over the whole input measured.
type runStats struct {
	wall     time.Duration // Ingest + RunRealTime, all attempts
	cpu      time.Duration // process user+sys over the same interval
	mallocs  uint64
	bytes    uint64
	rawIn    int64
	out      digests
	kills    int
	restarts int
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// newPipeline builds core in its production configuration: default
// instrumented registry, wall clock, no admin server. noObs switches the
// registry off, for the observability-tax measurement only.
func newPipeline(in input, shards int, noObs bool) (*core.Pipeline, error) {
	opts := []core.Option{core.WithConfig(in.cfg), core.WithShards(shards)}
	if noObs {
		opts = append(opts, core.WithObs(nil))
	}
	return core.New(opts...)
}

// openStore opens a DirStore in a fresh directory under outDir. The returned
// cleanup removes the directory.
func openStore(outDir string) (*checkpoint.DirStore, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { _ = os.RemoveAll(dir) } // scratch state; a leftover directory is harmless
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return store, cleanup, nil
}

// crashInjector arms the workload's one injected kill.
func crashInjector(spec *recoverySpec) *faultinject.Injector {
	return faultinject.New(faultinject.Config{KillMin: spec.crashAt, KillMax: spec.crashAt})
}

// recoveryConfig checkpoints into a fresh DirStore every spec.everyRecords
// records; crash adds the injected kill.
func recoveryConfig(spec *recoverySpec, outDir string, crash bool) (*core.RecoveryConfig, func(), error) {
	store, cleanup, err := openStore(outDir)
	if err != nil {
		return nil, nil, err
	}
	cpr, err := checkpoint.NewCheckpointer(store, 3)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	rc := &core.RecoveryConfig{Checkpointer: cpr, EveryRecords: spec.everyRecords}
	if crash {
		rc.Injector = crashInjector(spec)
	}
	return rc, cleanup, nil
}

// runToEnd drives RunWithRecovery the way a supervisor does: an injected
// crash is followed by a restart on the same pipeline until the run ends.
func runToEnd(p *core.Pipeline, rc *core.RecoveryConfig) (core.Summary, int, error) {
	restarts := 0
	sum, err := p.RunWithRecovery(context.Background(), rc)
	for errors.Is(err, faultinject.ErrInjectedCrash) {
		restarts++
		if restarts > 8 {
			return sum, restarts, fmt.Errorf("no progress after %d restarts", restarts)
		}
		sum, err = p.RunWithRecovery(context.Background(), rc)
	}
	return sum, restarts, err
}

// runClosed is one closed-loop run: the whole log is ingested, then the
// real-time layer drains it as fast as it can. With spec set the drain is
// checkpointed and crashes once.
func runClosed(in input, spec *recoverySpec, shards int, noObs bool, outDir string) (runStats, error) {
	var st runStats
	p, err := newPipeline(in, shards, noObs)
	if err != nil {
		return st, err
	}
	var rc *core.RecoveryConfig
	if spec != nil {
		var cleanup func()
		rc, cleanup, err = recoveryConfig(spec, outDir, true)
		if err != nil {
			return st, err
		}
		defer cleanup()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	if err := p.Ingest(context.Background(), in.reports); err != nil {
		return st, err
	}
	sum, restarts, err := runToEnd(p, rc)
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return st, err
	}
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	st.rawIn = sum.RawIn
	st.restarts = restarts
	if rc != nil {
		st.kills = rc.Injector.Kills()
	}
	st.out, err = digestOutputs(p.Broker)
	return st, err
}
