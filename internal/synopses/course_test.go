package synopses

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/mobility"
	"datacron/internal/obs"
)

// recomputedMeanCourse is the oracle the cached mean course must match bit
// for bit: sin/cos of every retained heading, recomputed on each call. The
// float64 conversions keep each product rounded before it is added, as a
// cached term is.
func recomputedMeanCourse(history []mobility.Report) (float64, bool) {
	if len(history) < 2 {
		return 0, false
	}
	var x, y float64
	for _, h := range history {
		rad := geo.Radians(h.Heading)
		x += float64(math.Sin(rad) * math.Max(h.SpeedKn, 0.1))
		y += float64(math.Cos(rad) * math.Max(h.SpeedKn, 0.1))
	}
	if x == 0 && y == 0 {
		return 0, false
	}
	return geo.NormalizeHeading(geo.Degrees(math.Atan2(x, y))), true
}

// wanderingStream interleaves movers whose report interval switches between
// dense (1–2 s: fills the HistoryLen cap inside the window) and sparse
// (20–100 s: entries age out), with slow drift and occasional sharp turns.
func wanderingStream(seed int64, movers, n int) []mobility.Report {
	rnd := rand.New(rand.NewSource(seed))
	type mover struct {
		id      string
		at      time.Time
		pos     geo.Point
		heading float64
		speed   float64
		dense   bool
	}
	ms := make([]*mover, movers)
	for i := range ms {
		ms[i] = &mover{id: string(rune('a' + i)), at: t0, pos: geo.Pt(23.5+float64(i)*0.1, 38), heading: rnd.Float64() * 360, speed: 8 + rnd.Float64()*6}
	}
	out := make([]mobility.Report, 0, n)
	for len(out) < n {
		m := ms[rnd.Intn(movers)]
		if rnd.Intn(120) == 0 {
			m.dense = !m.dense
		}
		dt := time.Duration(20+rnd.Intn(80)) * time.Second
		if m.dense {
			dt = time.Duration(1+rnd.Intn(2)) * time.Second
		}
		m.at = m.at.Add(dt)
		m.heading += rnd.NormFloat64() * 1.5
		if rnd.Intn(40) == 0 {
			m.heading += 30 + rnd.Float64()*90
		}
		m.heading = geo.NormalizeHeading(m.heading)
		m.pos = geo.Destination(m.pos, m.heading, m.speed*mobility.KnotsToMS*dt.Seconds())
		out = append(out, mobility.Report{ID: m.id, Time: m.at, Pos: m.pos, SpeedKn: m.speed, Heading: m.heading})
	}
	return out
}

// modelHistory is the history the generator must retain, kept as whole
// reports by the test: the accepted points of the recent course, restarted
// at a heading change, evicted by age and then by the HistoryLen cap.
func modelHistory(h []mobility.Report, r mobility.Report, cfg Config, restart bool) []mobility.Report {
	if restart {
		h = h[:0]
	}
	h = append(h, r)
	cutoff := r.Time.Add(-cfg.HistoryWindow)
	drop := 0
	for drop < len(h)-1 && h[drop].Time.Before(cutoff) {
		drop++
	}
	if over := len(h) - drop - cfg.HistoryLen; over > 0 {
		drop += over
	}
	return append(h[:0], h[drop:]...)
}

// TestMeanCourseCacheMatchesRecompute drives random streams through age
// eviction, the HistoryLen cap, heading-change resets and a Snapshot→Restore
// in the middle, checking the retained history's times and the cached mean
// course against a model that keeps whole reports, after every record.
func TestMeanCourseCacheMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultMaritime()
		g := NewGenerator(cfg)
		stream := wanderingStream(seed, 3, 6000)
		model := map[string][]mobility.Report{}
		var capped, aged, resets, restored int
		for i, r := range stream {
			if i == len(stream)/2 {
				blob, err := g.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				g = NewGenerator(cfg)
				if err := g.Restore(blob); err != nil {
					t.Fatal(err)
				}
				restored++
			}
			before, dropped := len(model[r.ID]), g.stats.Dropped
			cps := g.Process(r)
			if g.stats.Dropped == dropped {
				model[r.ID] = modelHistory(model[r.ID], r, cfg, countType(cps, ChangeInHeading) > 0)
			}
			st, want := g.states[r.ID], model[r.ID]
			if len(st.history) != len(want) {
				t.Fatalf("seed %d record %d: %d history entries, model has %d", seed, i, len(st.history), len(want))
			}
			for j, h := range st.history {
				if !h.t.Equal(want[j].Time) {
					t.Fatalf("seed %d record %d: history entry %d at %v, model at %v", seed, i, j, h.t, want[j].Time)
				}
			}
			got, gotOK := st.meanCourse()
			wantBrg, wantOK := recomputedMeanCourse(want)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(wantBrg) {
				t.Fatalf("seed %d record %d: cached mean course %v/%v, recomputed %v/%v", seed, i, got, gotOK, wantBrg, wantOK)
			}
			switch after := len(want); {
			case countType(cps, ChangeInHeading) > 0:
				resets++
			case after == cfg.HistoryLen && before == cfg.HistoryLen:
				capped++
			case after <= before:
				aged++
			}
		}
		if capped == 0 || aged == 0 || resets == 0 || restored == 0 {
			t.Errorf("seed %d: stream missed a case: capped=%d aged=%d resets=%d restored=%d", seed, capped, aged, resets, restored)
		}
	}
}

// TestProcessNonCriticalRecordDoesNotAllocate is the allocation gate for the
// common case: a record that triggers no critical point, with and without a
// metrics registry attached.
func TestProcessNonCriticalRecordDoesNotAllocate(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		g := NewGenerator(DefaultMaritime())
		if instrumented {
			g.Instrument(obs.NewRegistry(nil))
		}
		track := mkTrack("v1", 600, 2*time.Second, 12)
		i := 0
		for ; i < 200; i++ { // past the HistoryLen cap: the history no longer grows
			g.Process(track[i])
		}
		allocs := testing.AllocsPerRun(300, func() {
			if cps := g.Process(track[i]); cps != nil {
				t.Fatalf("record %d is critical: %v", i, cps)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("instrumented=%v: Process = %.1f allocs per non-critical record, want 0", instrumented, allocs)
		}
	}
}
