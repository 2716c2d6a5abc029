package geo

// CellLists maps each cell of a grid to a list of values, stored flat: the
// values of cell c are vals[start[c]:start[c+1]]. Building it takes four
// allocations — the two arrays and NewCellLists' two callbacks — however
// many cells and values it holds.
type CellLists[T any] struct {
	start []int
	vals  []T
}

// NewCellLists builds the lists of n cells from the (cell, value) pairs that
// each passes to add, each cell's values in the order added. It calls each
// twice — once to count the pairs and once to place them — so each must add
// the same pairs in the same order both times.
func NewCellLists[T any](n int, each func(add func(cell int, v T))) CellLists[T] {
	start := make([]int, n+1)
	each(func(cell int, _ T) { start[cell+1]++ })
	for c := 1; c <= n; c++ {
		start[c] += start[c-1]
	}
	// Place each value at its cell's cursor, start[c], which ends at the
	// next cell's start; shifting the cursors up one cell restores them.
	vals := make([]T, start[n])
	each(func(cell int, v T) {
		vals[start[cell]] = v
		start[cell]++
	})
	copy(start[1:], start[:n])
	start[0] = 0
	return CellLists[T]{start: start, vals: vals}
}

// Cell returns cell c's values, capped so an append cannot reach the next
// cell's.
func (l CellLists[T]) Cell(c int) []T {
	return l.vals[l.start[c]:l.start[c+1]:l.start[c+1]]
}
