// Package fixture stands in for internal/flp: loaded under that path, the
// predictor's Observe and Predict are explicit hotalloc roots, and the fit
// Predict calls is hot with it.
package fixture

// Predictor stands in for flp.RMFStar.
type Predictor struct{ xs []float64 }

// Observe is the per-report entry point.
func (p *Predictor) Observe(vs []float64) {
	var kept []float64
	for _, v := range vs {
		kept = append(kept, v) // want "append grows"
	}
	p.xs = kept
}

// Predict is the per-report entry point reaching fit through a call edge.
func (p *Predictor) Predict(k int) []float64 {
	return p.fit(k)
}

func (p *Predictor) fit(k int) []float64 {
	out := make([]float64, 0, k)
	for i := range p.xs {
		row := []float64{p.xs[i], 1} // want "slice literal allocated"
		out = append(out, row[0])
	}
	return out
}

// Evaluate has the same shape but is neither rooted nor reached from a root.
func (p *Predictor) Evaluate() []float64 {
	var out []float64
	for _, v := range p.xs {
		out = append(out, v)
	}
	return out
}
