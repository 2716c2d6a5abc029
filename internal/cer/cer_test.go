package cer

import (
	"math"
	"strings"
	"testing"

	"datacron/internal/gen"
)

func TestParsePattern(t *testing.T) {
	cases := map[string]string{
		"a c c":                       "a c c",
		"a(b + c)*d":                  "a (b + c)* d",
		"north (north + east)* south": "north (north + east)* south",
		"a**":                         "a**",
		"(a b) + c":                   "(a b) + c",
	}
	for in, want := range cases {
		p, err := ParsePattern(in)
		if err != nil {
			t.Errorf("parse(%q): %v", in, err)
			continue
		}
		if got := p.String(); got != want {
			t.Errorf("parse(%q).String() = %q, want %q", in, got, want)
		}
	}
	bad := []string{"", "a +", "(a", "a)", "a (", "+", "a £"}
	for _, in := range bad {
		if _, err := ParsePattern(in); err == nil {
			t.Errorf("parse(%q) should fail", in)
		}
	}
}

func TestSymbols(t *testing.T) {
	p := mustParse(t, "a (b + c)* a")
	syms := Symbols(p)
	if len(syms) != 3 {
		t.Errorf("symbols = %v", syms)
	}
}

func mustParse(t *testing.T, s string) Pattern {
	t.Helper()
	p, err := ParsePattern(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFigure6DFA verifies the structure of the DFA for R = a c c over
// Σ = {a, b, c} shown in Figure 6(a): 4 states tracking the progress
// 0 (nothing) → 1 (a seen) → 2 (a c) → 3 (a c c, final).
func TestFigure6DFA(t *testing.T) {
	dfa, err := Compile(mustParse(t, "a c c"), []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if dfa.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", dfa.NumStates())
	}
	finals := 0
	for _, f := range dfa.Final {
		if f {
			finals++
		}
	}
	if finals != 1 {
		t.Fatalf("final states = %d, want 1", finals)
	}
	// Walk the canonical path.
	s0 := dfa.Start
	s1 := dfa.Step(s0, "a")
	s2 := dfa.Step(s1, "c")
	s3 := dfa.Step(s2, "c")
	if !dfa.Final[s3] || dfa.Final[s0] || dfa.Final[s1] || dfa.Final[s2] {
		t.Fatal("final flags wrong along acc path")
	}
	// 'a' always returns to the "a seen" state (Σ*R semantics).
	for _, from := range []int{s0, s1, s2, s3} {
		if dfa.Step(from, "a") != s1 {
			t.Errorf("a-transition from %d should go to the a-seen state", from)
		}
	}
	// 'b' resets to start.
	for _, from := range []int{s0, s1, s2, s3} {
		if dfa.Step(from, "b") != s0 {
			t.Errorf("b-transition from %d should reset", from)
		}
	}
}

func TestDFADetectionsOnStream(t *testing.T) {
	dfa, err := Compile(mustParse(t, "a c c"), []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	stream := strings.Split("b a c c a b a c c c", " ")
	dets := dfa.Run(stream)
	// Detections at indices 3 (a c c) and 8 (a c c); index 9 ('c' after a
	// detection) does not re-complete because the run must restart with 'a'.
	if len(dets) != 2 || dets[0] != 3 || dets[1] != 8 {
		t.Errorf("detections = %v, want [3 8]", dets)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(mustParse(t, "a z"), []string{"a", "b"}); err == nil {
		t.Error("unknown symbol should fail")
	}
	if _, err := Compile(mustParse(t, "a"), []string{"a", "a"}); err == nil {
		t.Error("duplicate alphabet should fail")
	}
}

func TestDisjunctionAndIteration(t *testing.T) {
	// The paper's reversal pattern shape: n (n + e)* s.
	dfa, err := Compile(mustParse(t, "n (n + e)* s"), []string{"n", "e", "s", "w"})
	if err != nil {
		t.Fatal(err)
	}
	accepts := func(s string) bool {
		dets := dfa.Run(strings.Split(s, " "))
		return len(dets) > 0 && dets[len(dets)-1] == len(strings.Split(s, " "))-1
	}
	for _, s := range []string{"n s", "n n e s", "n e n e s", "w n e s"} {
		if !accepts(s) {
			t.Errorf("should detect at end of %q", s)
		}
	}
	for _, s := range []string{"n e w s", "s", "n e"} {
		if accepts(s) {
			t.Errorf("should not detect at end of %q", s)
		}
	}
}

func TestLearnModelRecoversIID(t *testing.T) {
	// Order-0 model over a biased i.i.d. stream.
	src := gen.NewMarkovSource(3, []string{"a", "b"}, 0, 0.7)
	stream := src.Generate(100_000)
	m := LearnModel(stream, []string{"a", "b"}, 0, 1)
	pa := m.Prob("a", nil)
	want, _ := src.ConditionalProb(nil, "a")
	if math.Abs(pa-want) > 0.02 {
		t.Errorf("P(a) = %.3f, want %.3f", pa, want)
	}
	if m.Order() != 0 {
		t.Error("order wrong")
	}
}

func TestLearnModelOrder2(t *testing.T) {
	src := gen.NewMarkovSource(5, []string{"a", "b"}, 2, 0.8)
	stream := src.Generate(200_000)
	m := LearnModel(stream, []string{"a", "b"}, 2, 1)
	for _, ctx := range [][]string{{"a", "a"}, {"a", "b"}, {"b", "a"}, {"b", "b"}} {
		want, err := src.ConditionalProb(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		got := m.Prob("a", ctx)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(a|%v) = %.3f, want %.3f", ctx, got, want)
		}
	}
}

func TestWaitingTimeDistributionIID(t *testing.T) {
	// Pattern R = a over Σ={a,b} with i.i.d. P(a)=p: the waiting time is
	// geometric: w(k) = (1-p)^(k-1) p. (Figure 7's machinery on the
	// simplest possible pattern.)
	dfa, err := Compile(mustParse(t, "a"), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	p := 0.3
	model := fixedModel{probs: map[string]float64{"a": p, "b": 1 - p}}
	pmc := BuildPMC(dfa, model, 30)
	dist, err := pmc.WaitingTime(dfa.Start, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		want := math.Pow(1-p, float64(k)) * p
		if math.Abs(dist[k]-want) > 1e-9 {
			t.Errorf("w(%d) = %.6f, want %.6f", k+1, dist[k], want)
		}
	}
}

// fixedModel is an i.i.d. model with fixed probabilities.
type fixedModel struct{ probs map[string]float64 }

func (f fixedModel) Order() int                           { return 0 }
func (f fixedModel) Prob(next string, _ []string) float64 { return f.probs[next] }

func TestWaitingTimeSumsToOne(t *testing.T) {
	// With enough horizon, waiting-time mass approaches 1 for an ergodic
	// input (the pattern eventually completes).
	dfa, err := Compile(mustParse(t, "a c c"), []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	model := fixedModel{probs: map[string]float64{"a": 0.4, "b": 0.2, "c": 0.4}}
	pmc := BuildPMC(dfa, model, 400)
	for q := 0; q < dfa.NumStates(); q++ {
		dist, err := pmc.WaitingTime(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range dist {
			sum += w
		}
		if sum < 0.999 || sum > 1.000001 {
			t.Errorf("state %d: waiting mass = %.6f", q, sum)
		}
	}
}

func TestForecastInterval(t *testing.T) {
	dist := []float64{0.1, 0.4, 0.3, 0.1, 0.1}
	s, e, p, ok := ForecastInterval(dist, 0.6)
	if !ok || s != 2 || e != 3 || p < 0.6 {
		t.Errorf("interval = (%d,%d,%.2f,%v), want (2,3,≥0.6,true)", s, e, p, ok)
	}
	// theta=0.95 needs nearly everything.
	s, e, _, ok = ForecastInterval(dist, 0.95)
	if !ok || s != 1 || e != 5 {
		t.Errorf("wide interval = (%d,%d,%v)", s, e, ok)
	}
	// Unreachable theta.
	if _, _, _, ok := ForecastInterval([]float64{0.1, 0.1}, 0.5); ok {
		t.Error("unreachable theta should return !ok")
	}
	// Single dominant step.
	s, e, _, ok = ForecastInterval([]float64{0.05, 0.9, 0.05}, 0.8)
	if !ok || s != 2 || e != 2 {
		t.Errorf("point interval = (%d,%d,%v)", s, e, ok)
	}
}

func TestForecasterEndToEnd(t *testing.T) {
	src := gen.NewMarkovSource(11, []string{"a", "b", "c"}, 1, 0.6)
	train := src.Generate(50_000)
	test := src.Generate(20_000)
	model := LearnModel(train, []string{"a", "b", "c"}, 1, 1)
	f, err := NewForecaster(mustParse(t, "a c c"), []string{"a", "b", "c"}, model, 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluatePrecision(f, test)
	if res.Forecasts == 0 || res.Detections == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	// A θ=0.5 forecast should be right at least ~half the time when the
	// model matches the source.
	if res.Precision() < 0.45 {
		t.Errorf("precision %.3f below threshold-consistency bound", res.Precision())
	}
}

func TestNewForecasterValidation(t *testing.T) {
	model := fixedModel{probs: map[string]float64{"a": 1}}
	if _, err := NewForecaster(mustParse(t, "a"), []string{"a"}, model, 10, 0); err == nil {
		t.Error("theta=0 should fail")
	}
	if _, err := NewForecaster(mustParse(t, "a"), []string{"a"}, model, 10, 1); err == nil {
		t.Error("theta=1 should fail")
	}
	if _, err := NewForecaster(mustParse(t, "z"), []string{"a"}, model, 10, 0.5); err == nil {
		t.Error("alphabet mismatch should fail")
	}
}

// TestFigure8HigherOrderImprovesPrecision reproduces the shape of Figure 8:
// when the input stream is a 2nd-order Markov process, a 2nd-order PMC
// yields forecasts with precision at least as high as a 1st-order PMC,
// across thresholds.
func TestFigure8HigherOrderImprovesPrecision(t *testing.T) {
	alphabet := []string{"n", "e", "s", "w"}
	src := gen.NewMarkovSource(29, alphabet, 2, 0.85)
	train := src.Generate(200_000)
	test := src.Generate(50_000)
	pattern := mustParse(t, "n (n + e)* s")

	run := func(order int, theta float64) PrecisionResult {
		model := LearnModel(train, alphabet, order, 1)
		f, err := NewForecaster(pattern, alphabet, model, 60, theta)
		if err != nil {
			t.Fatal(err)
		}
		return EvaluatePrecision(f, test)
	}
	better, total := 0, 0
	for _, theta := range []float64{0.3, 0.5, 0.7} {
		p1 := run(1, theta)
		p2 := run(2, theta)
		t.Logf("theta=%.1f: order1=%.3f (n=%d) order2=%.3f (n=%d)",
			theta, p1.Precision(), p1.Forecasts, p2.Precision(), p2.Forecasts)
		if p1.Forecasts == 0 || p2.Forecasts == 0 {
			continue
		}
		total++
		if p2.Precision() >= p1.Precision()-0.02 {
			better++
		}
	}
	if total == 0 {
		t.Fatal("no thresholds produced forecasts")
	}
	if better < total {
		t.Errorf("order-2 should not lose to order-1: %d/%d thresholds ok", better, total)
	}
}

func TestPrecisionIncreasesWithTheta(t *testing.T) {
	// Higher confidence thresholds should not decrease precision (wider
	// intervals are easier to hit).
	alphabet := []string{"a", "b", "c"}
	src := gen.NewMarkovSource(7, alphabet, 1, 0.7)
	train := src.Generate(100_000)
	test := src.Generate(30_000)
	model := LearnModel(train, alphabet, 1, 1)
	pattern := mustParse(t, "a c c")
	var last float64 = -1
	for _, theta := range []float64{0.2, 0.5, 0.8} {
		f, err := NewForecaster(pattern, alphabet, model, 80, theta)
		if err != nil {
			t.Fatal(err)
		}
		res := EvaluatePrecision(f, test)
		if res.Forecasts == 0 {
			continue
		}
		p := res.Precision()
		if p < last-0.05 {
			t.Errorf("precision dropped sharply at theta=%.1f: %.3f < %.3f", theta, p, last)
		}
		last = p
	}
}

// TestForecastLookupAllocs: looking up a chain state's waiting-time
// distribution builds its key on the stack, and a forecaster sliding its
// context along a long stream reuses one buffer, so neither allocates.
func TestForecastLookupAllocs(t *testing.T) {
	alphabet := []string{"a", "b", "c"}
	src := gen.NewMarkovSource(11, alphabet, 2, 0.6)
	model := LearnModel(src.Generate(5_000), alphabet, 2, 1)
	f, err := NewForecaster(mustParse(t, "a c c"), alphabet, model, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []string{"b", "c"}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.PMC().WaitingTime(1, ctx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WaitingTime made %v allocations, want 0", n)
	}
	stream := src.Generate(1_000)
	for _, s := range stream[:10] {
		f.Process(s)
	}
	i, forecasts := 10, 0
	if n := testing.AllocsPerRun(500, func() {
		if _, _, ok := f.Process(stream[i]); ok {
			forecasts++
		}
		i++
	}); n != 0 {
		t.Errorf("Process made %v allocations per symbol, want 0", n)
	}
	if forecasts == 0 {
		t.Error("the stream produced no forecasts")
	}
}
