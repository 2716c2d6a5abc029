package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"datacron/internal/core"
)

// shadowRun is one run of the shadow loop over the whole input.
type shadowRun struct {
	s       *shadow
	wall    time.Duration // ingest and every attempt, like runStats.wall
	runWall time.Duration // the attempts alone
	out     digests
	rawSkew float64 // partition skew of the raw topic
}

func runShadow(in input, spec *recoverySpec, shards int, spans bool, outDir string) (*shadowRun, error) {
	s, cleanup, err := newShadow(in, shards, spans, spec, outDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ctx := context.Background()
	runtime.GC()
	start := time.Now()
	if err := s.ingest(ctx); err != nil {
		return nil, err
	}
	ingested := time.Now()
	if err := s.run(ctx); err != nil {
		return nil, err
	}
	r := &shadowRun{s: s, wall: time.Since(start), runWall: time.Since(ingested)}
	r.out, err = digestOutputs(s.broker)
	r.rawSkew = partitionSkew(s)
	// The logs are digested; holding three runs' worth of them would make
	// every later run's garbage collector walk them.
	s.broker, s.dash, s.prof = nil, nil, nil
	return r, err
}

// measureLayers is the traced run. It measures core untraced (default
// registry, nil registry, shards=2) for the totals the layer shares are
// taken against, runs the shadow loop with spans on and off at shards=1 and
// with spans on at shards=2, and repeats the open-loop phase for the
// generator's own numbers. Every shadow run must publish core's output.
func measureLayers(w workload, o options) (*report, error) {
	warmStart := time.Now()
	s, err := newSession(w, o, w.input(o.seed, o.scale))
	if err != nil {
		return nil, err
	}
	warmCost := time.Since(warmStart)

	// Shadow runs: spans on and off at shards=1, spans on at shards=2.
	progress(w.name, "shadow runs")
	var on, off, on2 *shadowRun
	for _, c := range []struct {
		name   string
		into   **shadowRun
		shards int
		spans  bool
	}{{"shards1", &on, 1, true}, {"shards1_spans_off", &off, 1, false}, {"shards2", &on2, 2, true}} {
		r, err := runShadow(s.in, s.spec, c.shards, c.spans, o.outDir)
		if err != nil {
			return nil, fmt.Errorf("shadow %s: %w", c.name, err)
		}
		s.offered(r.s.sum.RawIn)
		s.check("shadow_"+c.name+"_digest_equals_core", r.out.equal(s.ref))
		if s.spec != nil {
			s.check("one_kill_one_restart", r.s.inj.Kills() == 1 && r.s.restarts == 1)
		}
		*c.into = r
	}

	// Core untraced, in rounds of (default, nil registry, shards=2), for as
	// long as the run's time allows after the shadow runs above (about a
	// warm-up each) and the live phase below.
	progress(w.name, "core untraced rounds")
	budget := time.Duration(o.seconds*float64(time.Second)) - s.liveDur() - 3*warmCost
	var def, nilReg, two closedLoop
	start := time.Now()
	var round time.Duration
	for i := 0; i == 0 || (i < 64 && time.Since(start)+round <= budget); i++ {
		t := time.Now()
		for _, c := range []struct {
			into   *closedLoop
			shards int
			noObs  bool
		}{{&def, 1, false}, {&nilReg, 1, true}, {&two, 2, false}} {
			st, err := s.closed(c.shards, c.noObs)
			if err != nil {
				return nil, err
			}
			c.into.add(st, s.n)
		}
		round = time.Since(t)
	}

	live, err := s.live()
	if err != nil {
		return nil, err
	}
	r := s.report()
	r.Trace, err = writeTrace(o.outDir, traceFile{
		Workload: w.name, Seed: o.seed, Scale: o.scale,
		Note: "one span per (poll batch, op): busy_ns sums the op's calls in the batch, " +
			"self_ns is busy_ns minus the spans whose parent it is; see bench/README.md",
		Shards1: on.s.rec.spans, Shards2: on2.s.rec.spans,
	})
	if err != nil {
		return nil, err
	}
	r.Layers = layerMetrics(s.n, on, off, on2, def, nilReg, two, live)
	return r, nil
}

// layerMetrics turns the traced runs into the per-layer metrics of
// BENCHMARK.json. Times per record divide by the offered records, so on the
// recovery workload a replayed record costs twice, as it does end to end.
func layerMetrics(n int, on, off, on2 *shadowRun, def, nilReg, two closedLoop, live liveStats) map[string]stat {
	m := map[string]stat{}
	rec, s := on.s.rec, on.s
	recs := float64(n)
	perRecord := func(o op) stat { return one(float64(rec.totals[o].self)/recs, "ns") }
	per := func(o op, denom int64) stat {
		if denom == 0 {
			return one(0, "ns")
		}
		return one(float64(rec.totals[o].self)/float64(denom), "ns")
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	points := s.sum.CriticalPoints

	m["mobility.encode_ns_per_record"] = perRecord(opMobilityEncode)
	m["mobility.decode_ns_per_record"] = perRecord(opMobilityDecode)
	m["mobility.decode_failed"] = one(float64(s.decodeFail), "count")

	m["msg.ingest_produce_ns_per_record"] = perRecord(opMsgIngestProduce)
	m["msg.poll_ns_per_record"] = perRecord(opMsgPoll)
	m["msg.commit_ns_per_record"] = perRecord(opMsgCommit)
	m["msg.produce_ns_per_call"] = per(opMsgProduce, rec.totals[opMsgProduce].calls)
	m["msg.produce_calls_per_record"] = one(float64(rec.totals[opMsgProduce].calls)/recs, "count")
	m["msg.bytes_out_per_record"] = one(float64(s.bytesOut)/recs, "B")
	m["msg.partition_skew"] = one(on.rawSkew, "ratio")

	m["lowlevel.area_ns_per_record"] = perRecord(opLowlevelArea)
	m["lowlevel.profiler_ns_per_record"] = perRecord(opLowlevelProfiler)
	m["lowlevel.area_events"] = one(float64(s.sum.AreaEvents), "count")

	m["flp.ns_per_record"] = perRecord(opFLP)
	m["flp.predictions"] = one(float64(s.sum.Predictions), "count")

	m["synopses.ns_per_record"] = perRecord(opSynopsesProcess)
	m["synopses.marshal_ns_per_point"] = per(opSynopsesMarshal, points)
	m["synopses.critical_ratio"] = one(ratio(points, s.sum.RawIn), "ratio")

	m["va.dashboard_ns_per_record"] = perRecord(opVADashboard)

	m["rdfgen.ns_per_point"] = per(opRdfgenGenerate, points)
	m["rdfgen.triples_per_point"] = one(ratio(s.sum.Triples, points), "count")
	m["rdf.encode_ns_per_triple"] = per(opRdfEncode, rec.totals[opRdfEncode].calls)

	m["linkdisc.setup_ms"] = one(ms(time.Duration(medianOf(s.setupNs))), "ms")
	m["linkdisc.ns_per_point"] = per(opLinkdiscPoint, points)
	m["linkdisc.links_per_point"] = one(ratio(s.sum.Links, points), "count")

	m["cer.ns_per_point"] = per(opCERProcess, rec.totals[opCERProcess].calls)
	m["cer.forecasts"] = one(float64(s.sum.Forecasts), "count")

	// The shard plane, from the shards=2 shadow: how long the coordinator
	// spent handing work over and waiting for it, and who was busy. Workers
	// idle while the merge is busy means the merge is the bottleneck.
	r2, s2 := on2.s.rec, on2.s
	m["shard.submit_ns_per_record"] = one(float64(r2.totals[opShardSubmit].self)/recs, "ns")
	m["shard.next_wait_ns_per_record"] = one(float64(r2.totals[opShardNext].self)/recs, "ns")
	m["shard.worker_busy_pct"] = one(100*float64(s2.workerBusy)/(float64(s2.shards)*float64(on2.runWall)), "%")
	m["shard.merge_busy_pct"] = one(100*float64(s2.mergeBusy)/float64(on2.runWall), "%")
	m["shard.route_skew"] = one(skew(s2.shardRecords), "ratio")
	m["shard.speedup"] = one(two.recsPerS.median()/def.recsPerS.median(), "ratio")

	captures := rec.totals[opCheckpointCapture].calls
	m["checkpoint.capture_ms_p50"] = one(ms(time.Duration(medianOf(rec.calls[opCheckpointCapture]))), "ms")
	m["checkpoint.save_ms_p50"] = one(ms(time.Duration(medianOf(rec.calls[opCheckpointSave]))), "ms")
	m["checkpoint.bytes_per_capture"] = one(medianOf(s.storeBytes()), "B")
	m["checkpoint.restore_ms"] = one(ms(rec.lastCall(opCheckpointRestore)), "ms")
	m["checkpoint.replayed_records"] = one(float64(s.replayed), "count")
	for name, o := range map[string]op{"synopses": opSnapSynopses, "flp": opSnapFLP, "area": opSnapArea,
		"profiler": opSnapProfiler, "linkdisc": opSnapLinkdisc, "cer": opSnapCER} {
		v := 0.0
		if captures > 0 {
			v = ms(rec.totals[o].busy) / float64(captures)
		}
		m["checkpoint.snapshot_ms."+name] = one(v, "ms")
	}

	defRate := def.recsPerS.median()
	m["obs.tax_pct"] = one((nilReg.recsPerS.median()/defRate-1)*100, "%")

	// The share table: each layer's self time in the shards=1 shadow against
	// core's own untraced time per record; what the layers do not explain is
	// core's private glue.
	untraced := 1e9 / defRate
	selfByLayer := rec.layerSelf()
	var layersNs float64
	for _, l := range layers {
		if l == "core" {
			continue
		}
		ns := float64(selfByLayer[l]) / recs
		layersNs += ns
		m["share_pct."+l] = one(100*ns/untraced, "%")
	}
	m["core.layers_ns_per_record"] = one(layersNs, "ns")
	m["core.residual_ns_per_record"] = one(untraced-layersNs, "ns")
	m["share_pct.core"] = one(100*(untraced-layersNs)/untraced, "%")

	m["trace.overhead_pct"] = one((float64(on.wall)/float64(off.wall)-1)*100, "%")
	m["trace.spans"] = one(float64(len(rec.spans)+len(r2.spans)), "count")
	m["proc.peak_rss_mb"] = one(peakRSSMB(), "MB")
	m["paced.gen_late_p99_ms"] = one(percentile(live.genLateMs, 0.99), "ms")
	m["paced.emit_lag_p90_ms"] = one(percentile(live.lagMs, 0.90), "ms")
	m["paced.emit_lag_p99_ms"] = one(percentile(live.lagMs, 0.99), "ms")
	m["paced.emit_lag_max_ms"] = one(percentile(live.lagMs, 1), "ms")
	m["paced.startup_lag_ms"] = one(live.startupMs, "ms")
	m["paced.backlog_max"] = one(float64(live.backlogMax), "count")
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// skew is the largest share over the mean share: 1 is a perfect split.
func skew(counts []int64) float64 {
	var total, most int64
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(counts)) / float64(total)
}

// partitionSkew is skew over the raw topic's partitions.
func partitionSkew(s *shadow) float64 {
	counts := make([]int64, s.in.cfg.Partitions)
	for p := range counts {
		end, err := s.broker.EndOffset(core.TopicRaw, p)
		if err != nil {
			return 0
		}
		counts[p] = end
	}
	return skew(counts)
}
