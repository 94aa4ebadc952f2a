package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// CellKey identifies one cell of a HashGrid.
type CellKey struct{ X, Y int32 }

// HashGrid is a sparse uniform grid over the unbounded plane, and the one
// spatial index: it needs no bounds and supports removal and movement,
// which serves the radio medium's live stations (insert on attach, move,
// remove on detach, neighborhood query per broadcast) and the WiGLE
// database's access points (insert once, exact radius queries and
// nearest-first ring walks).
//
// Items are referenced by caller-supplied int32 ids; the grid stores no
// payloads. Queries enumerate cells in a deterministic order — row-major,
// or ring by ring for WalkRings — clamped to the key range of the cells
// ever inserted into, so a radius far beyond the occupied region costs no
// empty-cell visits.
type HashGrid struct {
	cellSize float64
	cells    map[CellKey][]int32
	lo, hi   CellKey // occupied key range; lo > hi until the first Insert
}

// NewHashGrid builds a grid with cellSize-metre cells. cellSize must be
// positive.
func NewHashGrid(cellSize float64) (*HashGrid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size %v must be positive", cellSize)
	}
	return &HashGrid{cellSize: cellSize, cells: make(map[CellKey][]int32),
		lo: CellKey{math.MaxInt32, math.MaxInt32}, hi: CellKey{math.MinInt32, math.MinInt32}}, nil
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
	g.lo = CellKey{min(g.lo.X, k.X), min(g.lo.Y, k.Y)}
	g.hi = CellKey{max(g.hi.X, k.X), max(g.hi.Y, k.Y)}
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
	return g.Insert(id, p)
}

// Len returns the number of items in the grid.
func (g *HashGrid) Len() int {
	n := 0
	for _, ids := range g.cells {
		n += len(ids)
	}
	return n
}

// span returns the inclusive cell range covering the square of half-width
// radius around p, clamped to the occupied key range. It stays in int so
// that a huge radius cannot wrap an int32 key.
func (g *HashGrid) span(p Point, radius float64) (x0, y0, x1, y1 int) {
	x0 = max(floorDiv(p.X-radius, g.cellSize), int(g.lo.X))
	y0 = max(floorDiv(p.Y-radius, g.cellSize), int(g.lo.Y))
	x1 = min(floorDiv(p.X+radius, g.cellSize), int(g.hi.X))
	y1 = min(floorDiv(p.Y+radius, g.cellSize), int(g.hi.Y))
	return x0, y0, x1, y1
}

// AppendNeighborhood appends to dst the ids of every item whose cell
// intersects the axis-aligned square of half-width radius around p, and
// returns the extended slice. The result is a superset of the items within
// radius of p — callers re-check exact geometry — and is produced without
// allocating when dst has capacity. Cells are visited in row-major order;
// ids within a cell come back in bucket order, so callers that need a
// global order must impose their own. Each id sits in one cell, so the
// result never repeats an id: the radio medium marks the ids in a bitset
// and reads them back in ascending order.
//
// The scan spans ceil(radius/cellSize) rings of cells on each side of p's
// cell, so a radius larger than the cell size still sees every candidate.
// The radio medium queries at its radio range: one ring, by construction
// of its cell size. Exact, distance-ordered queries use WithinRadius.
func (g *HashGrid) AppendNeighborhood(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	x0, y0, x1, y1 := g.span(p, radius)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			dst = append(dst, g.cells[CellKey{X: int32(cx), Y: int32(cy)}]...)
		}
	}
	return dst
}

// WithinRadius returns the ids of all items within radius metres of p,
// nearest first, ties by ascending id; pos maps an id to its position. A
// negative radius returns nil.
func (g *HashGrid) WithinRadius(p Point, radius float64, pos func(int32) Point) []int32 {
	if radius < 0 {
		return nil
	}
	r2 := radius * radius
	var found []distItem
	x0, y0, x1, y1 := g.span(p, radius)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.cells[CellKey{X: int32(cx), Y: int32(cy)}] {
				if d2 := pos(id).Dist2(p); d2 <= r2 {
					found = append(found, distItem{id: id, d2: d2})
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b distItem) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ids := make([]int32, len(found))
	for i, f := range found {
		ids[i] = f.id
	}
	return ids
}

type distItem struct {
	id int32
	d2 float64
}

// WalkRings visits the items around p ring by ring, nearest ring first.
// Ring k is the cells at Chebyshev distance k from p's cell, clamped to the
// occupied key range; rings that miss the range are skipped, so a point far
// outside it costs no empty-ring visits. For each ring, visit receives the
// ring's ids (valid only during the call) and next, a lower bound on the
// distance from p of every item in a later ring: +Inf after the last ring.
// The walk ends when visit returns false or the rings have covered the
// occupied range.
func (g *HashGrid) WalkRings(p Point, visit func(ids []int32, next float64) bool) {
	if g.lo.X > g.hi.X {
		return
	}
	qx, qy := floorDiv(p.X, g.cellSize), floorDiv(p.Y, g.cellSize)
	lox, loy, hix, hiy := int(g.lo.X), int(g.lo.Y), int(g.hi.X), int(g.hi.Y)
	first := max(0, lox-qx, qx-hix, loy-qy, qy-hiy)
	last := max(qx-lox, hix-qx, qy-loy, hiy-qy)
	var ids []int32
	row := func(cy, x0, x1 int) {
		if cy < loy || cy > hiy {
			return
		}
		for cx := max(x0, lox); cx <= min(x1, hix); cx++ {
			ids = append(ids, g.cells[CellKey{X: int32(cx), Y: int32(cy)}]...)
		}
	}
	col := func(cx, y0, y1 int) {
		if cx < lox || cx > hix {
			return
		}
		for cy := max(y0, loy); cy <= min(y1, hiy); cy++ {
			ids = append(ids, g.cells[CellKey{X: int32(cx), Y: int32(cy)}]...)
		}
	}
	for k := first; k <= last; k++ {
		ids = ids[:0]
		row(qy-k, qx-k, qx+k)
		if k > 0 {
			col(qx-k, qy-k+1, qy+k-1)
			col(qx+k, qy-k+1, qy+k-1)
			row(qy+k, qx-k, qx+k)
		}
		next := math.Inf(1)
		if k < last {
			next = g.ringMin(p, qx, qy, k+1)
		}
		if !visit(ids, next) {
			return
		}
	}
}

// ringMin is a lower bound on the distance from p, in cell (qx, qy), to
// any point of ring k ≥ 1: the distance to the nearest of the ring's four
// inner edges, less a slack far above the rounding error of the cell keys
// and of Dist2, so an item in the ring never measures nearer than it.
func (g *HashGrid) ringMin(p Point, qx, qy, k int) float64 {
	c := g.cellSize
	d := min(p.X-float64(qx-k+1)*c, float64(qx+k)*c-p.X,
		p.Y-float64(qy-k+1)*c, float64(qy+k)*c-p.Y)
	d -= 1e-9 * (math.Abs(p.X) + math.Abs(p.Y) + float64(k+1)*c)
	return max(d, 0)
}
