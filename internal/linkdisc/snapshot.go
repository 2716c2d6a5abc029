package linkdisc

import (
	"encoding/json"
	"fmt"
	"time"

	"datacron/internal/geo"
)

// recentSnapshot is the wire form of recentPoint.
type recentSnapshot struct {
	ID   string    `json:"id"`
	Pos  geo.Point `json:"pos"`
	Time time.Time `json:"t"`
}

// discovererSnapshot is the wire form of the Discoverer's mutable state. The
// grid, cell index and masks are functions of the static entities and
// configuration — rebuilt at construction, the masks on first probe — so only
// the temporal book-keeping buffers and the counters are captured. Go encodes int-keyed maps with
// string keys, which round-trips losslessly.
type discovererSnapshot struct {
	Stats  Stats                    `json:"stats"`
	Recent map[int][]recentSnapshot `json:"recent,omitempty"`
}

// Snapshot serializes the discoverer's streaming state (checkpoint.Snapshotter).
func (d *Discoverer) Snapshot() ([]byte, error) {
	snap := discovererSnapshot{Stats: d.stats}
	if len(d.recent) > 0 {
		snap.Recent = make(map[int][]recentSnapshot, len(d.recent))
		for cell, rps := range d.recent {
			if len(rps) == 0 {
				continue
			}
			out := make([]recentSnapshot, len(rps))
			for i, rp := range rps {
				out[i] = recentSnapshot{ID: rp.id, Pos: rp.pos, Time: rp.time}
			}
			snap.Recent[cell] = out
		}
	}
	return json.Marshal(snap)
}

// Restore replaces the discoverer's streaming state with a snapshot taken by
// Snapshot against a discoverer built over the same statics and config.
func (d *Discoverer) Restore(data []byte) error {
	var snap discovererSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("linkdisc: restore: %w", err)
	}
	d.stats = snap.Stats
	if d.m != nil {
		// Re-anchor the delta mirror; metric state stays outside the
		// checkpoint so only post-restore progress reaches the registry.
		d.m.last = d.stats
	}
	d.recent = make(map[int][]recentPoint, len(snap.Recent))
	for cell, rps := range snap.Recent {
		out := make([]recentPoint, len(rps))
		for i, rp := range rps {
			out[i] = recentPoint{id: rp.ID, pos: rp.Pos, time: rp.Time}
		}
		d.recent[cell] = out
	}
	return nil
}
