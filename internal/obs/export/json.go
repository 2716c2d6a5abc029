package export

import (
	"time"

	"datacron/internal/obs"
)

// SnapshotJSON is the wire form of an obs.Snapshot behind the admin
// server's /statz endpoint. All float fields are finite: encoding/json
// rejects NaN and ±Inf, so histogram means over zero observations and
// rates over zero windows are rendered as 0.
type SnapshotJSON struct {
	At             time.Time       `json:"at"`
	ElapsedSeconds float64         `json:"elapsedSeconds"`
	Counters       []CounterJSON   `json:"counters,omitempty"`
	Gauges         []GaugeJSON     `json:"gauges,omitempty"`
	Histograms     []HistogramJSON `json:"histograms,omitempty"`
}

// CounterJSON is one counter with its derived per-second rate over the
// snapshot window.
type CounterJSON struct {
	Name       string  `json:"name"`
	Value      int64   `json:"value"`
	RatePerSec float64 `json:"ratePerSec"`
}

// GaugeJSON is one gauge reading.
type GaugeJSON struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketJSON is one histogram bucket with its cumulative count; LE is the
// upper bound rendered like the Prometheus le label ("+Inf" for overflow).
type BucketJSON struct {
	LE         string `json:"le"`
	Cumulative int64  `json:"cumulative"`
}

// HistogramJSON is one histogram with derived mean and quantiles.
type HistogramJSON struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Mean    float64      `json:"mean"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

// JSONSnapshot converts a snapshot to its JSON form, sanitising every
// derived value to a finite number.
func JSONSnapshot(s obs.Snapshot) SnapshotJSON {
	out := SnapshotJSON{At: s.At, ElapsedSeconds: finite(s.Elapsed.Seconds())}
	for _, c := range s.Counters {
		out.Counters = append(out.Counters, CounterJSON{
			Name: c.Name, Value: c.Value, RatePerSec: finite(s.Rate(c.Name)),
		})
	}
	for _, g := range s.Gauges {
		out.Gauges = append(out.Gauges, GaugeJSON{Name: g.Name, Value: finite(g.Value)})
	}
	for _, h := range s.Histograms {
		hj := HistogramJSON{
			Name:  h.Name,
			Count: h.Count,
			Sum:   finite(h.Sum),
			Mean:  finite(h.Mean()),
			P50:   finite(h.Quantile(0.5)),
			P99:   finite(h.Quantile(0.99)),
		}
		var cum int64
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatValue(h.Bounds[i])
			}
			hj.Buckets = append(hj.Buckets, BucketJSON{LE: le, Cumulative: cum})
		}
		out.Histograms = append(out.Histograms, hj)
	}
	return out
}
