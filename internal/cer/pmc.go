package cer

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SymbolModel gives the conditional distribution of the next stream symbol
// given the last m symbols (m = Order). Order 0 means i.i.d.
type SymbolModel interface {
	Order() int
	// Prob returns P(next | ctx); ctx has exactly Order symbols.
	Prob(next string, ctx []string) float64
}

// CountModel is an m-th-order Markov model estimated from a training stream
// by conditional frequencies with Laplace smoothing.
type CountModel struct {
	order    int
	alphabet []string
	counts   map[string]map[string]float64
	totals   map[string]float64
	alpha    float64
}

// LearnModel estimates an order-m model from the training stream.
func LearnModel(stream []string, alphabet []string, order int, laplace float64) *CountModel {
	if order < 0 {
		order = 0
	}
	if laplace <= 0 {
		laplace = 1
	}
	m := &CountModel{
		order:    order,
		alphabet: append([]string(nil), alphabet...),
		counts:   map[string]map[string]float64{},
		totals:   map[string]float64{},
		alpha:    laplace,
	}
	for i := order; i < len(stream); i++ {
		ctx := strings.Join(stream[i-order:i], "\x00")
		if m.counts[ctx] == nil {
			m.counts[ctx] = map[string]float64{}
		}
		m.counts[ctx][stream[i]]++
		m.totals[ctx]++
	}
	return m
}

// Order implements SymbolModel.
func (m *CountModel) Order() int { return m.order }

// Prob implements SymbolModel with Laplace smoothing.
func (m *CountModel) Prob(next string, ctx []string) float64 {
	k := strings.Join(ctx, "\x00")
	tot := m.totals[k]
	var c float64
	if m.counts[k] != nil {
		c = m.counts[k][next]
	}
	return (c + m.alpha) / (tot + m.alpha*float64(len(m.alphabet)))
}

// PMC is the Pattern Markov Chain: the product of the DFA with the symbol
// model's context. Each chain state is a (DFA state, last-m-symbols
// context) pair; the transition matrix follows the conditional symbol
// distribution (Figure 6(b)).
type PMC struct {
	dfa    *DFA
	model  SymbolModel
	states []pmcState
	index  map[string]int
	// trans[s] lists (target state, probability, targetIsFinal).
	trans [][]pmcEdge
	// waiting[s][k] = P(first detection exactly k+1 steps ahead | state s).
	waiting [][]float64
	horizon int
}

type pmcState struct {
	q   int
	ctx []string
}

type pmcEdge struct {
	to    int
	p     float64
	final bool
}

// appendPMCKey appends the index key of chain state (q, ctx): q in
// decimal, '|', then the context's symbols joined by NUL bytes.
func appendPMCKey(dst []byte, q int, ctx []string) []byte {
	dst = strconv.AppendInt(dst, int64(q), 10)
	dst = append(dst, '|')
	for i, sym := range ctx {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, sym...)
	}
	return dst
}

// pmcKeyBuf sizes the stack buffer a key lookup builds its key in; a longer
// key spills to the heap through append.
const pmcKeyBuf = 128

// BuildPMC constructs the chain reachable from every (DFA state, context)
// combination and precomputes waiting-time distributions up to horizon.
func BuildPMC(dfa *DFA, model SymbolModel, horizon int) *PMC {
	if horizon < 1 {
		horizon = 20
	}
	p := &PMC{dfa: dfa, model: model, index: map[string]int{}, horizon: horizon}
	m := model.Order()
	// Enumerate all contexts of length m.
	var contexts [][]string
	var walk func(prefix []string)
	walk = func(prefix []string) {
		if len(prefix) == m {
			contexts = append(contexts, append([]string(nil), prefix...))
			return
		}
		for _, a := range dfa.Alphabet {
			walk(append(prefix, a))
		}
	}
	walk(nil)

	var key []byte
	for q := 0; q < dfa.NumStates(); q++ {
		for _, ctx := range contexts {
			key = appendPMCKey(key[:0], q, ctx)
			p.index[string(key)] = len(p.states)
			p.states = append(p.states, pmcState{q: q, ctx: ctx})
		}
	}
	// Transitions.
	p.trans = make([][]pmcEdge, len(p.states))
	for si, st := range p.states {
		edges := make([]pmcEdge, 0, len(dfa.Alphabet))
		for _, a := range dfa.Alphabet {
			prob := model.Prob(a, st.ctx)
			nq := dfa.Step(st.q, a)
			nctx := st.ctx
			if m > 0 {
				nctx = append(append([]string(nil), st.ctx[1:]...), a)
			}
			key = appendPMCKey(key[:0], nq, nctx)
			edges = append(edges, pmcEdge{
				to:    p.index[string(key)],
				p:     prob,
				final: dfa.Final[nq],
			})
		}
		p.trans[si] = edges
	}
	p.computeWaiting()
	return p
}

// computeWaiting fills waiting[s][k] = P(first entry into a final DFA state
// happens exactly at step k+1 | current chain state s), for k+1 ≤ horizon.
func (p *PMC) computeWaiting() {
	n := len(p.states)
	p.waiting = make([][]float64, n)
	for s := range p.waiting {
		p.waiting[s] = make([]float64, p.horizon)
	}
	// k = 1.
	for s, edges := range p.trans {
		for _, e := range edges {
			if e.final {
				p.waiting[s][0] += e.p
			}
		}
	}
	// k > 1: go to a non-final successor, then first-hit in k-1.
	for k := 1; k < p.horizon; k++ {
		for s, edges := range p.trans {
			var sum float64
			for _, e := range edges {
				if !e.final {
					sum += e.p * p.waiting[e.to][k-1]
				}
			}
			p.waiting[s][k] = sum
		}
	}
}

// NumStates returns the number of chain states.
func (p *PMC) NumStates() int { return len(p.states) }

// WaitingTime returns the waiting-time distribution of the chain state for
// DFA state q and context ctx (Figure 7(b)); index k holds the probability
// of first detection exactly k+1 steps ahead.
func (p *PMC) WaitingTime(q int, ctx []string) ([]float64, error) {
	var buf [pmcKeyBuf]byte
	si, ok := p.index[string(appendPMCKey(buf[:0], q, ctx))]
	if !ok {
		return nil, fmt.Errorf("cer: unknown PMC state (%d, %v)", q, ctx)
	}
	return p.waiting[si], nil
}

// ForecastInterval finds the smallest interval I = (start, end), in steps
// ahead (1-based, inclusive), whose waiting-time mass is at least theta.
// ok is false when even the whole horizon has not accumulated theta.
// Ties in length prefer the earliest interval.
func ForecastInterval(dist []float64, theta float64) (start, end int, prob float64, ok bool) {
	bestLen := math.MaxInt
	var bestStart, bestEnd int
	var bestProb float64
	sum := 0.0
	lo := 0
	for hi := 0; hi < len(dist); hi++ {
		sum += dist[hi]
		for sum-dist[lo] >= theta && lo < hi {
			sum -= dist[lo]
			lo++
		}
		if sum >= theta {
			if hi-lo < bestLen {
				bestLen = hi - lo
				bestStart, bestEnd = lo+1, hi+1
				bestProb = sum
			}
		}
	}
	if bestLen == math.MaxInt {
		return 0, 0, 0, false
	}
	return bestStart, bestEnd, bestProb, true
}
