package core

import (
	"encoding/json"
	"fmt"
	"io"

	"datacron/internal/flow"
	"datacron/internal/linkdisc"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/obs/export"
	"datacron/internal/obs/slo"
	"datacron/internal/shard"
	"datacron/internal/synopses"
)

// FlowStats summarises the backpressure plane's last Ingest: the shedder's
// admission counters plus produces rejected by a drop-newest topic limit.
// The zero value means the plane was off or nothing was ever ingested.
type FlowStats struct {
	Shedder      flow.Stats `json:"shedder"`
	RejectedFull int64      `json:"rejected_full"` // produces rejected with msg.ErrTopicFull
}

// PipelineStats is one composed, race-free snapshot of the pipeline: the
// live metric registry, broker topic depths, and the component stats of
// the most recent completed real-time run. Metrics are live at the instant
// of the call; component stats (Synopses, Links, Consumer, Summary) are
// value copies captured when the last run returned. It is the one snapshot
// the stats surfaces render: /statz is its JSON encoding, /metrics renders
// its Metrics (MergedSnapshot), /slo its SLO, and cmd/datacron's -metrics
// dump its WriteText.
type PipelineStats struct {
	Metrics  obs.Snapshot      `json:"-"` // encoded sanitised, see MarshalJSON
	Broker   msg.BrokerStats   `json:"broker"`
	Synopses synopses.Stats    `json:"synopses"`
	Links    linkdisc.Stats    `json:"links"`
	Consumer msg.ConsumerStats `json:"consumer"`
	Summary  Summary           `json:"summary"`
	// Flow is the backpressure plane's view of the most recent Ingest
	// (zero when WithFlow is not armed).
	Flow FlowStats `json:"flow"`
	// Shards holds one row per shard worker (nil before the first run):
	// live progress, queue depth and per-shard synopses counters.
	Shards []ShardStats `json:"shards,omitempty"`
	// SLO is each freshness objective's standing (nil without WithSLO).
	SLO []slo.Status `json:"slo,omitempty"`
}

// MarshalJSON encodes the stats as the /statz document, with the metric
// snapshot in its sanitised JSON form: encoding/json rejects the non-finite
// floats a raw snapshot can hold.
func (s PipelineStats) MarshalJSON() ([]byte, error) {
	type fields PipelineStats // without this method, so encoding does not recurse
	return json.Marshal(struct {
		Metrics export.SnapshotJSON `json:"metrics"`
		fields
	}{export.JSONSnapshot(s.Metrics), fields(s)})
}

// ShardStats is one worker's live view: plane progress plus the worker's
// own synopses counters, read from its shard-local registry.
type ShardStats struct {
	Shard    int   `json:"shard"`
	Records  int64 `json:"records"`  // records processed on the worker goroutine
	Queue    int   `json:"queue"`    // inputs waiting in the shard's queue
	Critical int64 `json:"critical"` // critical points emitted by this shard
	Dropped  int64 `json:"dropped"`  // records dropped by this shard's noise filters
	BusyNS   int64 `json:"busy_ns"`  // time the worker spent processing
	WaitNS   int64 `json:"wait_ns"`  // time the merge spent blocked on this shard
}

// Stats snapshots the pipeline. Safe to call concurrently with a run; the
// metric registry and broker are read atomically, the component stats are
// from the last completed run.
func (p *Pipeline) Stats() PipelineStats {
	s := PipelineStats{
		Metrics: p.MergedSnapshot(),
		Broker:  p.Broker.Stats(),
		SLO:     p.slos.Status(),
	}
	p.mu.Lock()
	s.Synopses = p.lastSyn
	s.Links = p.lastLink
	s.Consumer = p.lastCons
	s.Summary = p.lastSum
	s.Flow = p.lastFlow
	regs := p.shardRegs
	p.mu.Unlock()
	for _, row := range p.shardProgress() {
		sr := ShardStats{Shard: row.Shard, Records: row.Processed, Queue: row.Queue,
			BusyNS: int64(row.Busy), WaitNS: int64(row.Wait)}
		if row.Shard < len(regs) {
			snap := regs[row.Shard].Snapshot()
			sr.Critical = snap.Counter("synopses.critical")
			sr.Dropped = snap.Counter("synopses.dropped")
		}
		s.Shards = append(s.Shards, sr)
	}
	return s
}

// shardProgress reads the current (or last) run's per-shard progress rows;
// none before the first run. /statz and the shard health checkers read it.
func (p *Pipeline) shardProgress() []shard.Stats {
	p.mu.Lock()
	stats := p.shardStats
	p.mu.Unlock()
	if stats == nil {
		return nil
	}
	return stats()
}

// setShardView publishes a run's shard registries and plane progress for
// Stats/MergedSnapshot readers.
func (p *Pipeline) setShardView(regs []*obs.Registry, stats func() []shard.Stats) {
	p.mu.Lock()
	p.shardRegs = regs
	p.shardStats = stats
	p.mu.Unlock()
}

// MergedSnapshot is the pipeline-wide metric view: the main registry
// merged with every shard worker's registry, twice over — once unprefixed
// (the aggregate: per-shard counters sum into the familiar names) and once
// under a "shard.<i>." prefix (the per-shard label). Before the first run
// there are no shard registries and it is the main registry's snapshot.
// The admin /metrics endpoint and Stats().Metrics read through this.
func (p *Pipeline) MergedSnapshot() obs.Snapshot {
	p.mu.Lock()
	regs := p.shardRegs
	p.mu.Unlock()
	out := p.obs.Snapshot()
	for i, reg := range regs {
		snap := reg.Snapshot()
		out = out.Merge(snap)
		out = out.Merge(snap.Prefixed(fmt.Sprintf("shard.%d.", i)))
	}
	return out
}

// Obs exposes the pipeline's metric registry (nil when instrumentation is
// disabled) so callers can share it across pipelines or add their own
// metrics.
func (p *Pipeline) Obs() *obs.Registry { return p.obs }

// Tracer exposes the pipeline's span tracer (nil when instrumentation is
// disabled).
func (p *Pipeline) Tracer() *obs.Tracer { return p.tracer }

// WriteText renders the snapshot as a plain-text dump: the run summary,
// per-topic broker depths, then every registry metric with rates — the
// output behind cmd/datacron's -metrics flag.
func (s PipelineStats) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# run summary\n%s\n# topics\n", s.Summary); err != nil {
		return err
	}
	for _, t := range s.Broker.Topics {
		if _, err := fmt.Fprintf(w, "topic   %-42s parts=%d records=%d bytes=%d backlog=%d evicted=%d rejected=%d\n",
			t.Name, t.Partitions, t.Records, t.Bytes, t.Backlog, t.Evicted, t.Rejected); err != nil {
			return err
		}
	}
	if st := s.Flow; st.Shedder.Admitted > 0 || st.Shedder.Shed() > 0 || st.RejectedFull > 0 {
		if _, err := fmt.Fprintf(w, "# flow\nflow    admitted=%d shed_bulk=%d shed_standard=%d rejected_full=%d level=%d\n",
			st.Shedder.Admitted, st.Shedder.ShedBulk, st.Shedder.ShedStandard, st.RejectedFull, st.Shedder.Level); err != nil {
			return err
		}
	}
	if len(s.Shards) > 0 {
		if _, err := fmt.Fprintf(w, "# shards\n"); err != nil {
			return err
		}
		for _, sh := range s.Shards {
			if _, err := fmt.Fprintf(w, "shard   %-42d records=%d critical=%d dropped=%d queue=%d\n",
				sh.Shard, sh.Records, sh.Critical, sh.Dropped, sh.Queue); err != nil {
				return err
			}
		}
	}
	return s.Metrics.WriteText(w)
}
