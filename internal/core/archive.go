package core

import (
	"fmt"
	"io"

	"datacron/internal/analytics"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

// This file provides the batch layer's persistence path — the stand-in for
// the paper's HDFS/Parquet archive: the RDF-ized stream can be exported as
// an N-Triples archive file and a knowledge graph can be rebuilt from one,
// so offline analytics survive process restarts.

// drainTriples reads the triples topic from offset zero (the broker log is
// left intact) and parses each record as one N-Triples line. A record that
// does not parse is skipped — one corrupt line must not cost the batch layer
// the rest of the stream — but never silently: the skips are counted in
// core.triples.unparsable and logged.
func (p *Pipeline) drainTriples() ([]rdf.Triple, error) {
	recs, err := p.Broker.Drain(TopicTriples)
	if err != nil {
		return nil, err
	}
	triples := make([]rdf.Triple, 0, len(recs))
	for _, rec := range recs {
		t, err := rdf.ParseNTriple(rec.Value)
		if err != nil {
			continue
		}
		triples = append(triples, t)
	}
	if bad := len(recs) - len(triples); bad > 0 {
		p.obs.Counter("core.triples.unparsable").Add(int64(bad))
		p.log.Warn("skipped unparsable triple records", "skipped", bad, "of", len(recs))
	}
	return triples, nil
}

// loadBatched loads triples into st in fixed-size batches, so
// spatio-temporal subjects whose position/time stamps arrive together get
// cell-embedding IDs.
func loadBatched(st *store.Store, triples []rdf.Triple) {
	const batch = 10_000
	for i := 0; i < len(triples); i += batch {
		st.Load(triples[i:min(i+batch, len(triples))])
	}
}

// ExportTriples writes every triple of the pipeline's triples topic as
// N-Triples to w, returning the count written.
func (p *Pipeline) ExportTriples(w io.Writer) (int64, error) {
	triples, err := p.drainTriples()
	if err != nil {
		return 0, err
	}
	if err := rdf.WriteNTriples(w, triples); err != nil {
		return 0, fmt.Errorf("core: exporting triples: %w", err)
	}
	return int64(len(triples)), nil
}

// LoadArchive builds a knowledge graph from an N-Triples archive produced
// by ExportTriples (or any N-Triples source).
func LoadArchive(r io.Reader, cfg store.STCellConfig, layout store.Layout) (*store.Store, error) {
	triples, err := rdf.ReadNTriples(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading archive: %w", err)
	}
	st := store.New(cfg, layout)
	loadBatched(st, triples)
	return st, nil
}

// MinePatterns runs the offline Complex Event Analyzer over the archived
// synopses topic: it mines frequent critical-point sequences and returns
// the top-k non-redundant proposals, ready to compile into the online
// recogniser — Figure 2's batch-to-real-time feedback loop. A record that
// does not decode is skipped, as drainTriples skips a line, and counted in
// core.synopses.unparsable and logged, so a format mismatch cannot pass for
// an archive with nothing to mine.
func (p *Pipeline) MinePatterns(cfg analytics.MineConfig, k int) ([]analytics.FrequentPattern, error) {
	recs, err := p.Broker.Drain(TopicSynopses)
	if err != nil {
		return nil, err
	}
	cps := make([]synopses.CriticalPoint, 0, len(recs))
	var firstErr error
	for _, rec := range recs {
		cp, err := synopses.UnmarshalCriticalPoint(rec.Value)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cps = append(cps, cp)
	}
	if bad := len(recs) - len(cps); bad > 0 {
		p.obs.Counter("core.synopses.unparsable").Add(int64(bad))
		p.log.Warn("skipped unparsable synopsis records", "skipped", bad, "of", len(recs), "first_error", firstErr)
	}
	return analytics.ProposePatterns(cps, cfg, k), nil
}
