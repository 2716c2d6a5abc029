// Package lowlevel implements the in-situ low-level event detection of
// Section 4.2.1: per-trajectory running statistics (min/max/average/median)
// of derived motion attributes such as speed and acceleration, and the
// annotation of position streams with area entry/exit events against a set
// of monitored geographical zones.
package lowlevel

import "math"

// RunningStats maintains the exact min, max and mean of a value stream and
// a streaming estimate of its median, in a fixed size whatever the stream's
// length. The median is the P² estimator (Jain & Chlamtac, CACM 28(10),
// 1985): five markers whose heights approximate the 0, ¼, ½, ¾ and 1
// quantiles, each moved towards its desired position by a piecewise-
// parabolic step; their desired positions follow from the count alone.
// Below five values the markers hold the values sorted, so the median is
// exact. Observe is O(1) and allocation-free. The zero value is empty and
// ready to use.
type RunningStats struct {
	n        int64
	min, max float64
	sum      float64
	// q holds the marker heights, non-decreasing; below five values, the
	// values themselves. pos holds the 1-based positions of the three inner
	// markers; the outer two sit at 1 and n.
	q   [5]float64
	pos [3]int64
}

// NewRunningStats returns empty statistics.
func NewRunningStats() *RunningStats { return &RunningStats{} }

// Observe adds a value. NaN is skipped.
func (s *RunningStats) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.sum += v
	s.n++
	if s.n <= 5 {
		s.insertSorted(v)
		if s.n == 5 {
			s.pos = [3]int64{2, 3, 4}
		}
		return
	}
	// The cell k with q[k] ≤ v < q[k+1]; the outer markers follow the
	// extremes.
	k := 0
	switch {
	case v < s.q[0]:
		s.q[0] = v
	case v > s.q[4]:
		s.q[4] = v
		k = 3
	default:
		for k < 3 && v >= s.q[k+1] {
			k++
		}
	}
	for i := k; i < 3; i++ {
		s.pos[i]++
	}
	// Inner marker i wants to sit at 1 + (n−1)·i/4. It moves one position
	// up when that is at least one above its position p, (n−1)·i − 4p ≥ 0,
	// and down when at least one below, (n−1)·i − 4p ≤ −8, if the
	// neighbour on that side leaves room.
	for i := 1; i <= 3; i++ {
		p, lo, hi := s.pos[i-1], int64(1), s.n
		if i > 1 {
			lo = s.pos[i-2]
		}
		if i < 3 {
			hi = s.pos[i]
		}
		switch d := (s.n-1)*int64(i) - 4*p; {
		case d >= 0 && hi-p > 1:
			s.move(i, 1, p, lo, hi)
		case d <= -8 && lo-p < -1:
			s.move(i, -1, p, lo, hi)
		}
	}
}

// insertSorted places the n-th value among the first n−1, after any equal
// ones.
func (s *RunningStats) insertSorted(v float64) {
	i := int(s.n) - 1
	for ; i > 0 && s.q[i-1] > v; i-- {
		s.q[i] = s.q[i-1]
	}
	s.q[i] = v
}

// move steps inner marker i, at position p between neighbours at lo and
// hi, one position in direction step, its height by the piecewise-
// parabolic formula or, where that leaves the neighbours' heights, the
// linear one. A marker with a non-finite neighbour stays where it is, so no
// height becomes NaN.
func (s *RunningStats) move(i int, step, p, lo, hi int64) {
	ql, qi, qh := s.q[i-1], s.q[i], s.q[i+1]
	if !finite(ql) || !finite(qi) || !finite(qh) {
		return
	}
	d, fp, flo, fhi := float64(step), float64(p), float64(lo), float64(hi)
	h := qi + d/(fhi-flo)*((fp-flo+d)*(qh-qi)/(fhi-fp)+(fhi-fp-d)*(qi-ql)/(fp-flo))
	if !(ql < h && h < qh) {
		if step > 0 {
			h = qi + (qh-qi)/(fhi-fp)
		} else {
			h = qi - (qi-ql)/(fp-flo)
		}
		if !(ql <= h && h <= qh) { // the difference overflowed
			return
		}
	}
	s.q[i] = h
	s.pos[i-1] = p + step
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

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

// Median returns the median, or NaN when empty: exact below five values
// (the average of the two central values for an even count), the P²
// estimate from then on.
func (s *RunningStats) Median() float64 {
	switch {
	case s.n == 0:
		return math.NaN()
	case s.n >= 5:
		return s.q[2]
	case s.n%2 == 1:
		return s.q[s.n/2]
	}
	return (s.q[s.n/2-1] + s.q[s.n/2]) / 2
}
