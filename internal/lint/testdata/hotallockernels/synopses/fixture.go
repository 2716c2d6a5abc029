// Package fixture stands in for internal/synopses: loaded under that path,
// the generator's Process is an explicit hotalloc root.
package fixture

import "fmt"

// Generator stands in for synopses.Generator.
type Generator struct{ history []float64 }

// Process is the per-report entry point.
func (g *Generator) Process(id string) []string {
	var out []string
	for _, h := range g.history {
		out = append(out, fmt.Sprintf("%s:%v", id, h)) // want "append grows" "fmt.Sprintf allocates"
	}
	return out
}

// Predict is a root name only under internal/flp; here it must stay silent.
func (g *Generator) Predict() []string {
	var out []string
	for _, h := range g.history {
		out = append(out, fmt.Sprint(h))
	}
	return out
}
