// Package fixture stands in for internal/lowlevel: loaded under that path,
// the profiler's Observe is an explicit hotalloc root, and the heap push it
// calls is hot with it.
package fixture

// Stats stands in for lowlevel.RunningStats.
type Stats struct{ heap []interface{} }

// Observe is the per-report entry point.
func (s *Stats) Observe(vs []float64) {
	s.pushAll(vs)
}

func (s *Stats) pushAll(vs []float64) {
	for _, v := range vs {
		s.heap = append(s.heap, interface{}(v)) // want "interface conversion boxes"
	}
}

// Restore is not a root and nothing rooted calls it.
func (s *Stats) Restore(vs []float64) {
	for _, v := range vs {
		s.heap = append(s.heap, interface{}(v))
	}
}
