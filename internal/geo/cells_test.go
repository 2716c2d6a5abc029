package geo

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCellListsMatchAppend: the flat lists hold, cell by cell, exactly what
// appending each pair to a per-cell slice gives, in the same order, and
// building them takes a fixed number of allocations.
func TestCellListsMatchAppend(t *testing.T) {
	const cells = 50
	rng := rand.New(rand.NewSource(1))
	type pair struct{ cell, v int }
	pairs := make([]pair, 400)
	for i := range pairs {
		// Half the cells stay empty, the last one among the filled.
		pairs[i] = pair{cell: 2*rng.Intn(cells/2) + 1, v: i}
	}
	want := make([][]int, cells)
	for _, p := range pairs {
		want[p.cell] = append(want[p.cell], p.v)
	}
	each := func(add func(int, int)) {
		for _, p := range pairs {
			add(p.cell, p.v)
		}
	}
	l := NewCellLists(cells, each)
	for c := 0; c < cells; c++ {
		got := l.Cell(c)
		if len(got) == 0 && want[c] == nil {
			continue
		}
		if !reflect.DeepEqual(got, want[c]) {
			t.Fatalf("cell %d = %v, want %v", c, got, want[c])
		}
		if cap(got) != len(got) {
			t.Fatalf("cell %d has spare capacity %d", c, cap(got)-len(got))
		}
	}
	if n := testing.AllocsPerRun(10, func() { NewCellLists(cells, each) }); n > 4 {
		t.Errorf("building the lists made %v allocations, want at most 4", n)
	}
}

// TestGridCovering: the block Covering returns is the cells CoveringCells
// lists, and a rectangle off the grid covers an empty block.
func TestGridCovering(t *testing.T) {
	g := testGrid()
	r := Rect{MinLon: -9.5, MinLat: 30.5, MaxLon: -7.5, MaxLat: 31.5}
	cr := g.Covering(r)
	var got []int
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			if cr.Contains(col, row) {
				got = append(got, g.Index(col, row))
			}
		}
	}
	if want := g.CoveringCells(r); !reflect.DeepEqual(got, want) || len(got) != 6 {
		t.Errorf("Covering's block holds %v, CoveringCells lists %v, want the same 6", got, want)
	}
	if cr := g.Covering(Rect{100, 100, 110, 110}); cr.C0 <= cr.C1 || cr.Contains(0, 0) {
		t.Errorf("a rectangle off the grid covers %+v, want an empty block", cr)
	}
}
