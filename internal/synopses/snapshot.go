package synopses

import (
	"encoding/json"
	"fmt"
	"time"

	"datacron/internal/mobility"
)

// moverSnapshot is the wire form of moverState for checkpointing.
type moverSnapshot struct {
	Last        mobility.Report   `json:"last"`
	HasLast     bool              `json:"hasLast,omitempty"`
	History     []mobility.Report `json:"history,omitempty"`
	StopSince   time.Time         `json:"stopSince,omitempty"`
	Stopped     bool              `json:"stopped,omitempty"`
	StopEmitted bool              `json:"stopEmitted,omitempty"`
	SlowSince   time.Time         `json:"slowSince,omitempty"`
	Slow        bool              `json:"slow,omitempty"`
	SlowEmitted bool              `json:"slowEmitted,omitempty"`
	MeanSpeedKn float64           `json:"meanSpeedKn,omitempty"`
	Climbing    int               `json:"climbing,omitempty"`
	Airborne    bool              `json:"airborne,omitempty"`
	GroundAlt   float64           `json:"groundAlt,omitempty"`
	WasAirborne bool              `json:"wasAirborne,omitempty"`
}

type generatorSnapshot struct {
	Stats  Stats                    `json:"stats"`
	Movers map[string]moverSnapshot `json:"movers,omitempty"`
}

// Snapshot serializes all per-mover state and counters (checkpoint.Snapshotter).
func (g *Generator) Snapshot() ([]byte, error) {
	snap := generatorSnapshot{Stats: g.stats}
	if len(g.states) > 0 {
		snap.Movers = make(map[string]moverSnapshot, len(g.states))
		for id, st := range g.states {
			snap.Movers[id] = moverSnapshot{
				Last:        st.last,
				HasLast:     st.hasLast,
				History:     st.history,
				StopSince:   st.stopSince,
				Stopped:     st.stopped,
				StopEmitted: st.stopEmitted,
				SlowSince:   st.slowSince,
				Slow:        st.slow,
				SlowEmitted: st.slowEmitted,
				MeanSpeedKn: st.meanSpeedKn,
				Climbing:    st.climbing,
				Airborne:    st.airborne,
				GroundAlt:   st.groundAlt,
				WasAirborne: st.wasAirborne,
			}
		}
	}
	return json.Marshal(snap)
}

// Restore replaces the generator's state with a snapshot taken by Snapshot.
// The configuration is not part of the snapshot: the restoring pipeline
// rebuilds the generator with the same Config it ran with.
func (g *Generator) Restore(data []byte) error {
	var snap generatorSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("synopses: restore: %w", err)
	}
	g.stats = snap.Stats
	if g.m != nil {
		// Re-anchor the delta mirror: metric state is monitoring-only and
		// deliberately outside the checkpoint, so only progress made after
		// this restore flows into the registry.
		g.m.last = g.stats
	}
	g.states = make(map[string]*moverState, len(snap.Movers))
	for id, ms := range snap.Movers {
		g.states[id] = &moverState{
			last:        ms.Last,
			hasLast:     ms.HasLast,
			history:     ms.History,
			course:      courseOfAll(ms.History),
			stopSince:   ms.StopSince,
			stopped:     ms.Stopped,
			stopEmitted: ms.StopEmitted,
			slowSince:   ms.SlowSince,
			slow:        ms.Slow,
			slowEmitted: ms.SlowEmitted,
			meanSpeedKn: ms.MeanSpeedKn,
			climbing:    ms.Climbing,
			airborne:    ms.Airborne,
			groundAlt:   ms.GroundAlt,
			wasAirborne: ms.WasAirborne,
		}
	}
	return nil
}
