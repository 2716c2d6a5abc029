package cer

import (
	"fmt"
)

// Forecast is an interval prediction: the pattern is expected to complete
// between Start and End steps ahead (inclusive) with probability Prob ≥ the
// threshold it was produced under.
type Forecast struct {
	At    int // stream index the forecast was made at
	Start int // steps ahead, 1-based inclusive
	End   int
	Prob  float64
}

// Detection marks a stream index at which the pattern completed.
type Detection struct {
	At int
}

// Forecaster is the online recognition-and-forecasting engine: it consumes
// a symbol stream, reports detections (DFA final states), and emits a
// forecast interval at every position once enough context has accumulated.
type Forecaster struct {
	dfa   *DFA
	pmc   *PMC
	theta float64

	state int
	ctx   []string
	pos   int
}

// NewForecaster builds the engine for a pattern over an alphabet, with an
// input model and a confidence threshold theta.
func NewForecaster(p Pattern, alphabet []string, model SymbolModel, horizon int, theta float64) (*Forecaster, error) {
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("cer: theta must be in (0,1), got %v", theta)
	}
	dfa, err := Compile(p, alphabet)
	if err != nil {
		return nil, err
	}
	return &Forecaster{
		dfa:   dfa,
		pmc:   BuildPMC(dfa, model, horizon),
		theta: theta,
		state: dfa.Start,
	}, nil
}

// DFA exposes the compiled automaton (for inspection and tests).
func (f *Forecaster) DFA() *DFA { return f.dfa }

// PMC exposes the pattern Markov chain.
func (f *Forecaster) PMC() *PMC { return f.pmc }

// Process consumes one symbol. detected reports whether the pattern
// completed at this symbol; fc is the forecast made after consuming it
// (ok=false while the model context is still filling up or when no interval
// reaches theta within the horizon). A symbol outside the alphabet has no
// PMC state, so no forecast is made until m alphabet symbols follow it; the
// context is cleared on it, which keeps it holding alphabet symbols only.
func (f *Forecaster) Process(symbol string) (detected bool, fc Forecast, ok bool) {
	f.state = f.dfa.Step(f.state, symbol)
	detected = f.dfa.Final[f.state]
	m := f.pmc.model.Order()
	if _, known := f.dfa.symIdx[symbol]; !known {
		f.ctx = f.ctx[:0]
	} else if len(f.ctx) == m && m > 0 {
		// Slide the full context in place, so a long stream reuses one
		// backing array instead of walking off its end.
		copy(f.ctx, f.ctx[1:])
		f.ctx[m-1] = symbol
	} else if m > 0 {
		f.ctx = append(f.ctx, symbol)
	}
	f.pos++
	if len(f.ctx) == m {
		if dist, err := f.pmc.WaitingTime(f.state, f.ctx); err == nil {
			if s, e, p, found := ForecastInterval(dist, f.theta); found {
				return detected, Forecast{At: f.pos - 1, Start: s, End: e, Prob: p}, true
			}
		}
	}
	return detected, Forecast{}, false
}

// Reset returns the engine to its initial state.
func (f *Forecaster) Reset() {
	f.state = f.dfa.Start
	f.ctx = nil
	f.pos = 0
}

// PrecisionResult aggregates a forecasting evaluation run (Figure 8).
type PrecisionResult struct {
	Theta      float64
	Order      int
	Forecasts  int
	Correct    int
	Detections int
	// SpreadSum accumulates interval widths (end-start) of scored
	// forecasts; Wayeb's evaluations report spread alongside precision —
	// narrow intervals are more useful at equal precision.
	SpreadSum int
}

// Precision is the fraction of forecasts whose interval contained a
// detection.
func (r PrecisionResult) Precision() float64 {
	if r.Forecasts == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Forecasts)
}

// Spread is the mean forecast-interval width in steps.
func (r PrecisionResult) Spread() float64 {
	if r.Forecasts == 0 {
		return 0
	}
	return float64(r.SpreadSum) / float64(r.Forecasts)
}

// EvaluatePrecision replays a stream and scores every emitted forecast: a
// forecast at position t with interval (s, e) is correct iff some detection
// occurs at a position in [t+s, t+e]. Forecasts whose interval extends past
// the end of the stream are not scored (their outcome is unknown).
func EvaluatePrecision(f *Forecaster, stream []string) PrecisionResult {
	f.Reset()
	var forecasts []Forecast
	detected := make([]bool, len(stream))
	nDet := 0
	for i, sym := range stream {
		d, fc, ok := f.Process(sym)
		if d {
			detected[i] = true
			nDet++
		}
		if ok {
			forecasts = append(forecasts, fc)
		}
	}
	res := PrecisionResult{Theta: f.theta, Order: f.pmc.model.Order(), Detections: nDet}
	for _, fc := range forecasts {
		lo, hi := fc.At+fc.Start, fc.At+fc.End
		if hi >= len(stream) {
			continue // outcome unknown
		}
		res.Forecasts++
		res.SpreadSum += fc.End - fc.Start
		for t := lo; t <= hi; t++ {
			if detected[t] {
				res.Correct++
				break
			}
		}
	}
	return res
}
