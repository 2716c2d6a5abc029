package fixture

import (
	"math/rand"
	"sort"
	"testing"
)

type gen struct{ rnd *rand.Rand }

func fill(rnd *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rnd.Intn(100)
	}
	return out
}

func TestMapOrderDraws(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	cases := map[string]int{"a": 1, "b": 2}
	for name, n := range cases { // want 2:"draws from rnd, declared outside it (line 23)"
		if rnd.Intn(n) > 5 {
			t.Log(name)
		}
	}
	for _, n := range cases { // want "draws from rnd"
		_ = fill(rnd, n)
	}
	g := gen{rnd: rnd}
	for range cases { // want "draws from g"
		_ = g.rnd.Float64()
	}
	for name := range cases { // want "draws from rnd"
		t.Run(name, func(t *testing.T) { _ = rnd.Intn(3) })
	}
	//lint:ignore determinism a waiver in a test file is honoured like any other
	for range cases { // want "draws from rnd"
		_ = rnd.Intn(2)
	}
}

func TestOrderFreeDraws(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	cases := map[string]int{"a": 1, "b": 2}
	names := make([]string, 0, len(cases))
	for name := range cases { // ok: draws nothing
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names { // ok: the same draw over a sorted slice
		_ = rnd.Intn(cases[name])
	}
	for name, n := range cases { // ok: one source per key, declared in the loop
		own := rand.New(rand.NewSource(int64(len(name))))
		_ = own.Intn(n)
	}
}
