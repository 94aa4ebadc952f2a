package geo

import "fmt"

// CellKey identifies one cell of a HashGrid.
type CellKey struct{ X, Y int32 }

// HashGrid is a sparse uniform grid over the unbounded plane. Unlike
// GridIndex it needs no bounds up front and supports removal and movement,
// which makes it the right shape for a live set of stations: insert on
// attach, move on position updates, remove on detach, and query the cells
// covering a radius at delivery time.
//
// Items are referenced by caller-supplied int32 ids; the grid stores no
// payloads. Neighborhood visits enumerate cells in deterministic row-major
// order, so two identical grids always yield the same id sequence.
type HashGrid struct {
	cellSize float64
	cells    map[CellKey][]int32
}

// NewHashGrid builds a grid with cellSize-metre cells. cellSize must be
// positive.
func NewHashGrid(cellSize float64) (*HashGrid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size %v must be positive", cellSize)
	}
	return &HashGrid{cellSize: cellSize, cells: make(map[CellKey][]int32)}, nil
}

// Key returns the cell containing p.
func (g *HashGrid) Key(p Point) CellKey {
	return CellKey{X: int32(floorDiv(p.X, g.cellSize)), Y: int32(floorDiv(p.Y, g.cellSize))}
}

// floorDiv is floor(v/size) as an int, correct for negative coordinates
// (plain integer conversion truncates toward zero, which would fold the
// cells around the origin together).
func floorDiv(v, size float64) int {
	q := v / size
	i := int(q)
	if q < 0 && float64(i) != q {
		i--
	}
	return i
}

// Insert adds id at p and returns the cell it landed in, for the caller to
// cache and hand back to Move or Remove.
func (g *HashGrid) Insert(id int32, p Point) CellKey {
	k := g.Key(p)
	g.cells[k] = append(g.cells[k], id)
	return k
}

// Remove deletes id from the cell it was last inserted or moved into.
// Removing an id the cell does not hold is a no-op.
func (g *HashGrid) Remove(id int32, k CellKey) {
	ids := g.cells[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = ids
			}
			return
		}
	}
}

// Move re-buckets id from its cached cell to the cell containing p and
// returns the new key. When the position stays within the same cell the
// grid is untouched.
func (g *HashGrid) Move(id int32, from CellKey, p Point) CellKey {
	k := g.Key(p)
	if k == from {
		return k
	}
	g.Remove(id, from)
	g.cells[k] = append(g.cells[k], id)
	return k
}

// Len returns the number of items in the grid.
func (g *HashGrid) Len() int {
	n := 0
	for _, ids := range g.cells {
		n += len(ids)
	}
	return n
}

// AppendNeighborhood appends to dst the ids of every item whose cell
// intersects the axis-aligned square of half-width radius around p, and
// returns the extended slice. The result is a superset of the items within
// radius of p — callers re-check exact geometry — and is produced without
// allocating when dst has capacity. Cells are visited in row-major order;
// ids within a cell come back in bucket order, so callers that need a
// global order must impose their own (ids are ints — sort them).
//
// The scan spans ceil(radius/cellSize) rings of cells on each side of p's
// cell, so a radius larger than the cell size still sees every candidate.
// The radio medium, the grid's user, queries at its radio range: one ring,
// by construction of its cell size.
func (g *HashGrid) AppendNeighborhood(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	lo := g.Key(Point{X: p.X - radius, Y: p.Y - radius})
	hi := g.Key(Point{X: p.X + radius, Y: p.Y + radius})
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			dst = append(dst, g.cells[CellKey{X: cx, Y: cy}]...)
		}
	}
	return dst
}
