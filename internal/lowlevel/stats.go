// Package lowlevel implements the in-situ low-level event detection of
// Section 4.2.1: per-trajectory running statistics (min/max/average/median)
// of derived motion attributes such as speed and acceleration, and the
// annotation of position streams with area entry/exit events against a set
// of monitored geographical zones.
package lowlevel

import "math"

// RunningStats maintains exact min, max, mean and median of a value stream.
// Observe is O(1): it keeps every value in observation order, and Median
// selects the middle values from a copy when it is read, so reading never
// reorders what a checkpoint stores. The zero value is empty and ready to
// use.
type RunningStats struct {
	min, max float64
	sum      float64
	vals     []float64 // every observed value, oldest first
}

// NewRunningStats returns empty statistics.
func NewRunningStats() *RunningStats { return &RunningStats{} }

// Observe adds a value. NaN is skipped.
func (s *RunningStats) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if len(s.vals) == 0 || v < s.min {
		s.min = v
	}
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.sum += v
	s.vals = append(s.vals, v)
}

// N returns the number of observations.
func (s *RunningStats) N() int64 { return int64(len(s.vals)) }

// Min returns the minimum, or NaN when empty.
func (s *RunningStats) Min() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the maximum, or NaN when empty.
func (s *RunningStats) Max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	return s.max
}

// Mean returns the average, or NaN when empty.
func (s *RunningStats) Mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.vals))
}

// Median returns the median (average of the two central values for even
// counts), or NaN when empty. It selects from a copy of the values in
// expected linear time.
func (s *RunningStats) Median() float64 {
	n := len(s.vals)
	if n == 0 {
		return math.NaN()
	}
	vals := append([]float64(nil), s.vals...)
	upper := selectKth(vals, n/2)
	if n%2 == 1 {
		return upper
	}
	// Selection left every value below index n/2 no greater than upper, so
	// the lower central value is the largest of them.
	lower := vals[0]
	for _, v := range vals[1 : n/2] {
		lower = math.Max(lower, v)
	}
	return (lower + upper) / 2
}

// selectKth partially orders vs (no NaN) so that vs[k] holds the value of
// rank k, every value before it is no greater and every value after it no
// smaller, and returns vs[k]. The three-way partition keeps a run of equal
// values — a constant speed — linear.
func selectKth(vs []float64, k int) float64 {
	lo, hi := 0, len(vs)-1
	for lo < hi {
		a, b, c := vs[lo], vs[lo+(hi-lo)/2], vs[hi]
		pivot := math.Max(math.Min(a, b), math.Min(math.Max(a, b), c))
		// vs[lo:lt] < pivot, vs[lt:i] == pivot, vs[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := vs[i]; {
			case v < pivot:
				vs[lt], vs[i] = v, vs[lt]
				lt++
				i++
			case v > pivot:
				vs[gt], vs[i] = v, vs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return vs[k]
		}
	}
	return vs[k]
}
