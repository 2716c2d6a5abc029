// Package temporal provides time intervals, interval sets with the usual
// set algebra, and the "time mask" temporal filter introduced for visual
// analytics of disparate mobility data (Andrienko et al., Visual Informatics
// 2017; Section 7 and Figure 10 of the datAcron overview paper).
//
// A time mask is a set of disjoint time intervals in which some query
// condition holds; it can then be applied as a filter to any other
// time-referenced dataset (events, trajectory segments, measurements).
package temporal

import (
	"fmt"
	"sort"
	"time"
)

// Interval is a half-open time interval [Start, End). Half-open intervals
// compose cleanly under union and complement.
type Interval struct {
	Start time.Time
	End   time.Time
}

// NewInterval returns the interval [start, end); it swaps the endpoints if
// given in reverse order.
func NewInterval(start, end time.Time) Interval {
	if end.Before(start) {
		start, end = end, start
	}
	return Interval{Start: start, End: end}
}

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return !iv.Start.Before(iv.End) }

// Duration returns End-Start, or zero for empty intervals.
func (iv Interval) Duration() time.Duration {
	if iv.IsEmpty() {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Contains reports whether t lies in [Start, End).
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Overlaps reports whether the two intervals share any instant.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Start.Before(o.End) && o.Start.Before(iv.End)
}

// Intersect returns the overlap of the two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	s := iv.Start
	if o.Start.After(s) {
		s = o.Start
	}
	e := iv.End
	if o.End.Before(e) {
		e = o.End
	}
	if e.Before(s) {
		e = s
	}
	return Interval{Start: s, End: e}
}

// Gap returns the temporal distance between the intervals: zero when they
// overlap or touch, otherwise the duration separating them.
func (iv Interval) Gap(o Interval) time.Duration {
	if iv.Overlaps(o) {
		return 0
	}
	if !iv.End.After(o.Start) {
		return o.Start.Sub(iv.End)
	}
	return iv.Start.Sub(o.End)
}

// Expand returns the interval widened by d on both sides.
func (iv Interval) Expand(d time.Duration) Interval {
	return Interval{Start: iv.Start.Add(-d), End: iv.End.Add(d)}
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Start.Format(time.RFC3339), iv.End.Format(time.RFC3339))
}

// Set is an ordered collection of disjoint, non-touching, non-empty
// intervals — the canonical form of a time mask. The zero value is the
// empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a canonical set from arbitrary intervals: empties are
// dropped, overlapping and touching intervals are merged.
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Intervals returns the canonical intervals in ascending order. The caller
// must not modify the returned slice.
func (s *Set) Intervals() []Interval { return s.ivs }

// Len returns the number of disjoint intervals.
func (s *Set) Len() int { return len(s.ivs) }

// IsEmpty reports whether the set covers no instants.
func (s *Set) IsEmpty() bool { return len(s.ivs) == 0 }

// TotalDuration returns the summed length of all intervals.
func (s *Set) TotalDuration() time.Duration {
	var d time.Duration
	for _, iv := range s.ivs {
		d += iv.Duration()
	}
	return d
}

// Span returns the smallest single interval covering the whole set, or an
// empty interval when the set is empty.
func (s *Set) Span() Interval {
	if len(s.ivs) == 0 {
		return Interval{}
	}
	return Interval{Start: s.ivs[0].Start, End: s.ivs[len(s.ivs)-1].End}
}

// Add inserts iv, merging with any overlapping or touching intervals.
func (s *Set) Add(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	// Find insertion window [lo, hi) of intervals that touch or overlap iv.
	lo := sort.Search(len(s.ivs), func(i int) bool {
		return !s.ivs[i].End.Before(iv.Start)
	})
	hi := sort.Search(len(s.ivs), func(i int) bool {
		return s.ivs[i].Start.After(iv.End)
	})
	if lo < hi {
		if s.ivs[lo].Start.Before(iv.Start) {
			iv.Start = s.ivs[lo].Start
		}
		if s.ivs[hi-1].End.After(iv.End) {
			iv.End = s.ivs[hi-1].End
		}
	}
	out := make([]Interval, 0, len(s.ivs)-(hi-lo)+1)
	out = append(out, s.ivs[:lo]...)
	out = append(out, iv)
	out = append(out, s.ivs[hi:]...)
	s.ivs = out
}

// Contains reports whether t lies in some interval of the set.
func (s *Set) Contains(t time.Time) bool {
	i := sort.Search(len(s.ivs), func(i int) bool {
		return s.ivs[i].End.After(t)
	})
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Union returns a new set covering instants in s or o.
func (s *Set) Union(o *Set) *Set {
	out := NewSet(s.ivs...)
	for _, iv := range o.ivs {
		out.Add(iv)
	}
	return out
}

// Intersect returns a new set covering instants in both s and o.
func (s *Set) Intersect(o *Set) *Set {
	out := &Set{}
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		x := s.ivs[i].Intersect(o.ivs[j])
		if !x.IsEmpty() {
			out.ivs = append(out.ivs, x)
		}
		if s.ivs[i].End.Before(o.ivs[j].End) {
			i++
		} else {
			j++
		}
	}
	return out
}

// Complement returns the instants of the span interval not covered by s.
func (s *Set) Complement(span Interval) *Set {
	out := &Set{}
	cursor := span.Start
	for _, iv := range s.ivs {
		if !iv.End.After(span.Start) {
			continue
		}
		if !iv.Start.Before(span.End) {
			break
		}
		if iv.Start.After(cursor) {
			out.ivs = append(out.ivs, Interval{Start: cursor, End: iv.Start})
		}
		if iv.End.After(cursor) {
			cursor = iv.End
		}
	}
	if cursor.Before(span.End) {
		out.ivs = append(out.ivs, Interval{Start: cursor, End: span.End})
	}
	return out
}

// Expand returns a new set with every interval widened by d on both sides
// (re-merged into canonical form). This implements the "temporal buffer"
// used when relating events to surrounding movement.
func (s *Set) Expand(d time.Duration) *Set {
	out := &Set{}
	for _, iv := range s.ivs {
		out.Add(iv.Expand(d))
	}
	return out
}
