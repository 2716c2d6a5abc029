// Package fixture stands in for internal/rdfgen: loaded under that path,
// Generate is an explicit hotalloc root, and what it calls is hot with it.
package fixture

// Generator stands in for rdfgen.Generator.
type Generator struct{ template []string }

// Generate is the triple generator's per-record entry point.
func (g *Generator) Generate(rec map[string]string) []string {
	return g.appendTriples(rec)
}

func (g *Generator) appendTriples(rec map[string]string) []string {
	var out []string
	for _, name := range g.template {
		vars := map[string]string{name: rec[name]} // want "map literal allocated"
		out = append(out, vars[name])              // want "append grows"
	}
	return out
}

// Throughput is neither rooted nor reached from a root.
func (g *Generator) Throughput() []string {
	var out []string
	for _, name := range g.template {
		out = append(out, name)
	}
	return out
}
