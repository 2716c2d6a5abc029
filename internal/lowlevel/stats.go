// Package lowlevel implements the in-situ low-level event detection of
// Section 4.2.1: per-trajectory running statistics (min/max/average/median)
// of derived motion attributes such as speed and acceleration, and the
// annotation of position streams with area entry/exit events against a set
// of monitored geographical zones.
package lowlevel

import "math"

// RunningStats maintains exact min, max, mean and median of a value stream
// in O(log n) per observation, using the classic two-heap median algorithm.
type RunningStats struct {
	min, max float64
	sum      float64
	n        int64
	lo       []float64 // max-heap of the values <= median
	hi       []float64 // min-heap of the values >= median
}

// NewRunningStats returns empty statistics.
func NewRunningStats() *RunningStats {
	return &RunningStats{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe adds a value.
func (s *RunningStats) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.n++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	// Median maintenance.
	if len(s.lo) == 0 || v <= s.lo[0] {
		s.lo = heapPush(s.lo, v, true)
	} else {
		s.hi = heapPush(s.hi, v, false)
	}
	// Rebalance so that len(lo) is len(hi) or len(hi)+1.
	var top float64
	if len(s.lo) > len(s.hi)+1 {
		s.lo, top = heapPop(s.lo, true)
		s.hi = heapPush(s.hi, top, false)
	} else if len(s.hi) > len(s.lo) {
		s.hi, top = heapPop(s.hi, false)
		s.lo = heapPush(s.lo, top, true)
	}
}

// N returns the number of observations.
func (s *RunningStats) N() int64 { return s.n }

// Min returns the minimum, or NaN when empty.
func (s *RunningStats) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the maximum, or NaN when empty.
func (s *RunningStats) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Mean returns the average, or NaN when empty.
func (s *RunningStats) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// Median returns the running median (average of the two central values for
// even counts), or NaN when empty.
func (s *RunningStats) Median() float64 {
	switch {
	case s.n == 0:
		return math.NaN()
	case len(s.lo) > len(s.hi):
		return s.lo[0]
	default:
		return (s.lo[0] + s.hi[0]) / 2
	}
}

// The median heaps are plain []float64 binary heaps, max-ordered (lo) or
// min-ordered (hi). heapPush and heapPop make exactly container/heap's
// sift-up and sift-down steps, so the slice layout — which a checkpoint
// stores verbatim — is what container/heap would produce, without boxing
// each value in an interface.

// heapBefore reports whether a must sit above b.
func heapBefore(a, b float64, max bool) bool {
	if max {
		return a > b
	}
	return a < b
}

func heapPush(h []float64, v float64, max bool) []float64 {
	h = append(h, v)
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !heapBefore(h[j], h[i], max) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// heapPop removes and returns the root. h must not be empty.
func heapPop(h []float64, max bool) ([]float64, float64) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && heapBefore(h[r], h[j], max) {
			j = r
		}
		if !heapBefore(h[j], h[i], max) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// isHeap reports whether h satisfies the heap property for its order.
func isHeap(h []float64, max bool) bool {
	for j := 1; j < len(h); j++ {
		if heapBefore(h[j], h[(j-1)/2], max) {
			return false
		}
	}
	return true
}
