package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/obs"
	"datacron/internal/obs/slo"
)

// TestSLOViolationDrivesHealthAndEndpoints walks a freshness objective
// through the full escalation on a ManualClock: a violated window degrades
// the "slo" health component (costing readiness), Burn consecutive violated
// windows escalate to Overloaded, and a compliant window recovers — with
// every state visible on /slo, /statz and /readyz.
func TestSLOViolationDrivesHealthAndEndpoints(t *testing.T) {
	clk := obs.NewManualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	p, err := New(
		WithClock(clk),
		WithAdmin("127.0.0.1:0"),
		WithWatchdogInterval(time.Hour), // ticked manually
		WithSLO(slo.Objective{
			Family:    "lag.predict.seconds",
			Threshold: 100 * time.Millisecond,
			Window:    time.Minute,
			Burn:      2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background())
	w := p.Watchdog()
	w.Tick() // anchor the SLO window at the epoch

	getSLO := func() slo.Status {
		t.Helper()
		code, body := adminGet(t, p, "/slo")
		if code != http.StatusOK {
			t.Fatalf("/slo = %d", code)
		}
		var doc struct {
			Objectives []slo.Status `json:"objectives"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/slo does not decode: %v\n%s", err, body)
		}
		if len(doc.Objectives) != 1 {
			t.Fatalf("/slo objectives = %d, want 1:\n%s", len(doc.Objectives), body)
		}
		return doc.Objectives[0]
	}
	window := func(lagSeconds float64) {
		h := p.Obs().Histogram("lag.predict.seconds")
		for i := 0; i < 20; i++ {
			h.Observe(lagSeconds)
		}
		clk.Advance(time.Minute)
		w.Tick()
	}

	if st := getSLO(); st.Windows != 0 || st.Violated {
		t.Fatalf("before any closed window: %+v", st)
	}
	if code, _ := adminGet(t, p, "/readyz"); code != http.StatusOK {
		t.Fatal("pipeline must start ready")
	}

	// One violated window: budget burning, readiness lost, /slo says why.
	window(2.0)
	st := getSLO()
	if st.Windows != 1 || !st.Violated || st.Streak != 1 {
		t.Fatalf("after one slow window: %+v", st)
	}
	code, body := adminGet(t, p, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "slo") {
		t.Fatalf("/readyz after violated window = %d, body:\n%s", code, body)
	}

	// Second consecutive violated window reaches Burn=2: overloaded.
	window(2.0)
	var sloVerdict string
	for _, r := range w.Report() {
		if r.Component == "slo" {
			sloVerdict = r.Status.String()
		}
	}
	if sloVerdict != "overloaded" {
		t.Fatalf("slo component after sustained violation = %q, want overloaded", sloVerdict)
	}

	// The standing also rides /statz for scrapers that only read one doc.
	code, body = adminGet(t, p, "/statz")
	if code != http.StatusOK {
		t.Fatalf("/statz = %d", code)
	}
	var statz PipelineStats
	if err := json.Unmarshal([]byte(body), &statz); err != nil {
		t.Fatal(err)
	}
	if len(statz.SLO) != 1 || !statz.SLO[0].Violated || statz.SLO[0].Violations != 2 {
		t.Fatalf("/statz slo block = %+v", statz.SLO)
	}
	if got := p.Stats().SLO[0].Streak; got != 2 {
		t.Fatalf("Stats().SLO streak = %d, want 2", got)
	}

	// A compliant window ends the streak and restores readiness.
	window(0.01)
	if st := getSLO(); st.Streak != 0 || st.Violated {
		t.Fatalf("after recovery window: %+v", st)
	}
	if code, body := adminGet(t, p, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, body:\n%s", code, body)
	}
}

// TestTraceSampledRecoveryByteIdentical pins the sampler's replay contract:
// with head-based trace sampling armed, a pipeline killed and recovered
// mid-stream still publishes byte-identical topics and an identical summary
// to an uninterrupted sampled run — the sampler resets with the registry on
// restore and re-admits the same records, never perturbing the data path.
func TestTraceSampledRecoveryByteIdentical(t *testing.T) {
	base, reports := maritimePipeline(t, true, WithTraceSampling(4))
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := maritimePipeline(t, true, WithTraceSampling(4))
	if err := faulty.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 42, KillMin: 900, KillMax: 1500, DropProb: 0.01})
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}

	sum, restarts := runUntilDone(t, faulty, rc, 100)
	if inj.Kills() < 2 {
		t.Fatalf("only %d crashes injected; the test proved nothing", inj.Kills())
	}
	t.Logf("sampled run recovered from %d crashes (%d restarts)", inj.Kills(), restarts)

	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nuninterrupted %v\nrecovered     %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)

	// The flight recorder still holds parent-linked sampled record trees
	// from the final (post-recovery) replay.
	recs := faulty.Tracer().Recent()
	byID := make(map[int64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	var roots, linked int
	for _, r := range recs {
		if r.Name == "record" && r.Parent == 0 {
			roots++
		}
		if parent, ok := byID[r.Parent]; ok && parent.Name == "record" {
			linked++
		}
	}
	if roots == 0 || linked == 0 {
		t.Errorf("flight recorder after recovery: %d record roots, %d linked children; want both > 0", roots, linked)
	}
}

// TestShardedLagMergeMatchesSerial checks the freshness plane across the
// shard boundary on a real run: the merged lag histogram counts exactly the
// records the serial run counted, the merged watermark is the max over the
// per-shard watermarks, and the shard-labelled copies survive the merge.
func TestShardedLagMergeMatchesSerial(t *testing.T) {
	serial, reports := shardedMaritimePipeline(t, false, 1)
	if err := serial.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	sharded, reports2 := shardedMaritimePipeline(t, false, shards)
	if err := sharded.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}

	ms, mp := serial.MergedSnapshot(), sharded.MergedSnapshot()
	hs, ok := ms.Histogram("lag.decode.seconds")
	if !ok || hs.Count == 0 {
		t.Fatal("serial run produced no decode lag observations")
	}
	hp, ok := mp.Histogram("lag.decode.seconds")
	if !ok {
		t.Fatal("sharded merge lost the aggregate lag.decode.seconds family")
	}
	if hp.Count != hs.Count {
		t.Errorf("merged decode lag count = %d, serial = %d; shards must sum to the serial count", hp.Count, hs.Count)
	}

	mark, ok := mp.Gauge("lag.decode.max_seconds")
	if !ok {
		t.Fatal("sharded merge lost the decode watermark gauge")
	}
	var want float64
	var shardCount int64
	for i := 0; i < shards; i++ {
		v, ok := mp.Gauge(fmt.Sprintf("shard.%d.lag.decode.max_seconds", i))
		if !ok {
			t.Fatalf("shard %d watermark missing from merged snapshot", i)
		}
		want = math.Max(want, v)
		h, ok := mp.Histogram(fmt.Sprintf("shard.%d.lag.decode.seconds", i))
		if !ok {
			t.Fatalf("shard %d lag histogram missing from merged snapshot", i)
		}
		shardCount += h.Count
	}
	if mark != want {
		t.Errorf("merged watermark = %v, want max over shards %v (last-write-wins would be wrong here)", mark, want)
	}
	if shardCount != hp.Count {
		t.Errorf("per-shard labelled counts sum to %d, aggregate says %d", shardCount, hp.Count)
	}
}
