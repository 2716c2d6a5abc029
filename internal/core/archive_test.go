package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"datacron/internal/analytics"
	"datacron/internal/gen"
	"datacron/internal/obs"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
)

func TestExportAndLoadArchive(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	sum, err := p.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := p.ExportTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != sum.Triples {
		t.Errorf("exported %d, summary says %d", n, sum.Triples)
	}
	lines := strings.Count(buf.String(), "\n")
	if int64(lines) != n {
		t.Errorf("archive has %d lines, want %d", lines, n)
	}

	// Rebuild the KG from the archive and compare to the broker-built one.
	cellCfg := store.STCellConfig{
		Extent: region, Cols: 32, Rows: 32,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}
	fromArchive, err := LoadArchive(bytes.NewReader(buf.Bytes()), cellCfg, store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	fromBroker, err := p.BuildKnowledgeGraph(cellCfg, store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	if fromArchive.Len() != fromBroker.Len() {
		t.Errorf("archive KG %d triples, broker KG %d", fromArchive.Len(), fromBroker.Len())
	}
	// Same query, same answers.
	q := store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
		},
		Rect:      region,
		TimeStart: gen.DefaultStart,
		TimeEnd:   gen.DefaultStart.Add(2 * time.Hour),
	}
	a, _, _ := fromArchive.StarJoin(q, store.EncodedPruning)
	b, _, _ := fromBroker.StarJoin(q, store.EncodedPruning)
	if len(a) != len(b) {
		t.Errorf("archive query %d results, broker query %d", len(a), len(b))
	}
}

func TestLoadArchiveBadInput(t *testing.T) {
	cellCfg := store.STCellConfig{Extent: region, Epoch: gen.DefaultStart}
	if _, err := LoadArchive(strings.NewReader("not ntriples"), cellCfg, store.NewPropertyTable()); err == nil {
		t.Error("malformed archive should fail")
	}
	// Empty archive is a valid empty store.
	st, err := LoadArchive(strings.NewReader(""), cellCfg, store.NewPropertyTable())
	if err != nil || st.Len() != 0 {
		t.Errorf("empty archive: %v, %d", err, st.Len())
	}
}

func TestMinePatternsFromArchive(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}
	proposals, err := p.MinePatterns(analytics.MineConfig{MinSupport: 4, MaxLength: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(proposals) == 0 {
		t.Fatal("no patterns mined from the archive")
	}
	for _, prop := range proposals {
		if prop.Support < 4 || len(prop.Items) < 2 {
			t.Errorf("malformed proposal: %+v", prop)
		}
	}
}

// TestUnparsableSynopsisRecordsAreCounted: MinePatterns skips a synopsis
// record it cannot decode — here one in the JSON format from before the
// binary records — mines the rest as if it were absent, and says so.
func TestUnparsableSynopsisRecordsAreCounted(t *testing.T) {
	mine := func(corrupt bool) ([]analytics.FrequentPattern, *Pipeline, string) {
		var logs bytes.Buffer
		p, reports := maritimePipeline(t, false,
			WithObs(obs.NewRegistry(nil)), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
		ctx := context.Background()
		if err := p.Ingest(ctx, reports); err != nil {
			t.Fatal(err)
		}
		if corrupt {
			junk := []byte(`{"id":"v-1","t":"2016-04-01T00:00:00Z","type":"stop_start"}`)
			if _, err := p.Broker.Produce(ctx, TopicSynopses, "v-1", junk, gen.DefaultStart); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.RunRealTime(ctx); err != nil {
			t.Fatal(err)
		}
		proposals, err := p.MinePatterns(analytics.MineConfig{MinSupport: 4, MaxLength: 3}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return proposals, p, logs.String()
	}
	want, clean, _ := mine(false)
	if got := clean.Obs().Snapshot().Counter("core.synopses.unparsable"); got != 0 {
		t.Fatalf("clean archive: core.synopses.unparsable = %d, want 0", got)
	}
	got, p, logs := mine(true)
	if n := p.Obs().Snapshot().Counter("core.synopses.unparsable"); n != 1 {
		t.Errorf("core.synopses.unparsable = %d, want 1", n)
	}
	if !strings.Contains(logs, "skipped unparsable synopsis records") || !strings.Contains(logs, "0x7b") {
		t.Errorf("no warning naming the bad record in the log:\n%s", logs)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("proposals with one corrupt record differ from the clean archive's:\n got %v\nwant %v", got, want)
	}
}
