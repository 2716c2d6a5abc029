package geo

import "fmt"

// Grid is the equi-grid space partitioning used by the link-discovery
// blocking scheme and by the knowledge-graph store's spatio-temporal
// dictionary encoding: a uniform Cols×Rows subdivision of a bounding
// rectangle. Cells are addressed either by (col, row) or by a dense integer
// index in [0, Cols*Rows).
type Grid struct {
	Extent Rect
	Cols   int
	Rows   int
	dLon   float64
	dLat   float64
}

// NewGrid subdivides extent into cols×rows equal cells. It panics on
// non-positive dimensions or an empty extent, which indicate programmer
// error rather than bad data.
func NewGrid(extent Rect, cols, rows int) *Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geo: grid dimensions must be positive, got %dx%d", cols, rows))
	}
	if extent.IsEmpty() {
		panic("geo: grid extent is empty")
	}
	return &Grid{
		Extent: extent,
		Cols:   cols,
		Rows:   rows,
		dLon:   extent.Width() / float64(cols),
		dLat:   extent.Height() / float64(rows),
	}
}

// NumCells returns Cols*Rows.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// Locate returns the (col, row) of the cell containing p, clamping points on
// or outside the extent boundary to the nearest edge cell, and ok=false when
// p is strictly outside the extent.
func (g *Grid) Locate(p Point) (col, row int, ok bool) {
	ok = g.Extent.Contains(p)
	col = int((p.Lon - g.Extent.MinLon) / g.dLon)
	row = int((p.Lat - g.Extent.MinLat) / g.dLat)
	col = clamp(col, 0, g.Cols-1)
	row = clamp(row, 0, g.Rows-1)
	return col, row, ok
}

// Index converts (col, row) to a dense cell index.
func (g *Grid) Index(col, row int) int { return row*g.Cols + col }

// ColRow converts a dense cell index back to (col, row).
func (g *Grid) ColRow(idx int) (col, row int) { return idx % g.Cols, idx / g.Cols }

// CellIndex returns the dense index of the cell containing p and ok=false if
// p is outside the extent (the index is still the clamped nearest cell).
func (g *Grid) CellIndex(p Point) (int, bool) {
	col, row, ok := g.Locate(p)
	return g.Index(col, row), ok
}

// CellRect returns the rectangle of cell (col, row).
func (g *Grid) CellRect(col, row int) Rect {
	return Rect{
		MinLon: g.Extent.MinLon + float64(col)*g.dLon,
		MinLat: g.Extent.MinLat + float64(row)*g.dLat,
		MaxLon: g.Extent.MinLon + float64(col+1)*g.dLon,
		MaxLat: g.Extent.MinLat + float64(row+1)*g.dLat,
	}
}

// CellRange is a block of grid cells: columns C0..C1 of rows R0..R1,
// inclusive. It is empty when C0 > C1.
type CellRange struct{ C0, R0, C1, R1 int }

// Contains reports whether cell (col, row) lies in the block.
func (cr CellRange) Contains(col, row int) bool {
	return col >= cr.C0 && col <= cr.C1 && row >= cr.R0 && row <= cr.R1
}

// Covering returns the block of cells intersecting r, clipped to the grid
// extent; it is empty when r misses the extent.
func (g *Grid) Covering(r Rect) CellRange {
	if !g.Extent.Intersects(r) {
		return CellRange{C0: 0, C1: -1}
	}
	c0, r0, _ := g.Locate(Point{Lon: r.MinLon, Lat: r.MinLat})
	c1, r1, _ := g.Locate(Point{Lon: r.MaxLon, Lat: r.MaxLat})
	return CellRange{C0: c0, R0: r0, C1: c1, R1: r1}
}

// CoveringCells returns the dense indices of all cells intersecting r,
// clipped to the grid extent, row by row. The result is empty when r misses
// the extent.
func (g *Grid) CoveringCells(r Rect) []int {
	cr := g.Covering(r)
	if cr.C0 > cr.C1 {
		return nil
	}
	out := make([]int, 0, (cr.C1-cr.C0+1)*(cr.R1-cr.R0+1))
	for row := cr.R0; row <= cr.R1; row++ {
		for col := cr.C0; col <= cr.C1; col++ {
			out = append(out, g.Index(col, row))
		}
	}
	return out
}

// Neighbors returns the dense indices of the up-to-8 cells adjacent to
// (col, row), excluding the cell itself.
func (g *Grid) Neighbors(col, row int) []int {
	out := make([]int, 0, 8)
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			c, r := col+dc, row+dr
			if c >= 0 && c < g.Cols && r >= 0 && r < g.Rows {
				out = append(out, g.Index(c, r))
			}
		}
	}
	return out
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
