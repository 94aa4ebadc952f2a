package geo

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHashGridValidation(t *testing.T) {
	if _, err := NewHashGrid(0); err == nil {
		t.Error("NewHashGrid(0) accepted")
	}
	if _, err := NewHashGrid(-5); err == nil {
		t.Error("NewHashGrid(-5) accepted")
	}
}

func TestHashGridKeyNegativeCoordinates(t *testing.T) {
	g, err := NewHashGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	// Cells must partition the plane: the cells just left of and just
	// right of the origin are distinct (truncation toward zero would fold
	// them together).
	if g.Key(Pt(-1, 0)) == g.Key(Pt(1, 0)) {
		t.Error("cells across x=0 folded together")
	}
	if got, want := g.Key(Pt(-1, -1)), (CellKey{X: -1, Y: -1}); got != want {
		t.Errorf("Key(-1,-1) = %+v, want %+v", got, want)
	}
	if got, want := g.Key(Pt(-10, 0)), (CellKey{X: -1, Y: 0}); got != want {
		t.Errorf("Key(-10,0) = %+v, want %+v (boundary belongs to the right cell)", got, want)
	}
}

func TestHashGridInsertRemoveMove(t *testing.T) {
	g, err := NewHashGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	k1 := g.Insert(1, Pt(5, 5))
	k2 := g.Insert(2, Pt(5, 6)) // same cell
	if k1 != k2 {
		t.Fatalf("expected same cell, got %+v vs %+v", k1, k2)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}

	// Move within the cell is a no-op; across cells re-buckets.
	if k := g.Move(1, k1, Pt(6, 6)); k != k1 {
		t.Errorf("intra-cell move changed key to %+v", k)
	}
	k3 := g.Move(1, k1, Pt(25, 5))
	if k3 == k1 {
		t.Error("cross-cell move kept old key")
	}
	if g.Len() != 2 {
		t.Fatalf("Len after move = %d, want 2", g.Len())
	}

	g.Remove(2, k2)
	g.Remove(2, k2) // double remove is a no-op
	g.Remove(1, k3)
	if g.Len() != 0 {
		t.Fatalf("Len after removes = %d, want 0", g.Len())
	}
}

func TestHashGridNeighborhoodSuperset(t *testing.T) {
	g, err := NewHashGrid(50)
	if err != nil {
		t.Fatal(err)
	}
	// Ring of points at varying distances from the origin.
	pts := []Point{Pt(0, 0), Pt(30, 0), Pt(49, 49), Pt(120, 0), Pt(-60, -60), Pt(500, 500)}
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	got := g.AppendNeighborhood(nil, Pt(0, 0), 50)
	slices.Sort(got)
	// Everything within 50 m must be present (0, 1, 2); the far point
	// (500,500) must not be. Points in adjacent cells may appear — the
	// result is a superset and callers re-check exact distance.
	for _, want := range []int32{0, 1, 2} {
		if !slices.Contains(got, want) {
			t.Errorf("in-range id %d missing from neighborhood %v", want, got)
		}
	}
	if slices.Contains(got, 5) {
		t.Errorf("far id 5 present in neighborhood %v", got)
	}

	if res := g.AppendNeighborhood(nil, Pt(0, 0), -1); len(res) != 0 {
		t.Errorf("negative radius returned %v", res)
	}
}

func TestHashGridNeighborhoodDeterministicAndZeroAlloc(t *testing.T) {
	g, err := NewHashGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g.Insert(int32(i), Pt(float64(i%20)*7, float64(i/20)*7))
	}
	a := g.AppendNeighborhood(nil, Pt(50, 30), 25)
	b := g.AppendNeighborhood(nil, Pt(50, 30), 25)
	if !slices.Equal(a, b) {
		t.Fatalf("neighborhood order not deterministic: %v vs %v", a, b)
	}

	buf := make([]int32, 0, 256)
	avg := testing.AllocsPerRun(100, func() {
		buf = g.AppendNeighborhood(buf[:0], Pt(50, 30), 25)
	})
	if avg != 0 {
		t.Errorf("AppendNeighborhood with capacity allocates %.2f/op, want 0", avg)
	}
}

// TestHashGridNeighborhoodRadiusLargerThanCell is the regression test for
// query radii exceeding the cell size: promotion-boundary queries use radii
// several times the broadcast cell, and every in-range item must still be
// returned (a fixed 3×3 scan would miss items two or more rings out).
func TestHashGridNeighborhoodRadiusLargerThanCell(t *testing.T) {
	const cell = 10.0
	g, err := NewHashGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	// A lattice spanning many cells in every direction, including negative
	// coordinates.
	var pts []Point
	id := int32(0)
	for x := -80.0; x <= 80; x += 8 {
		for y := -80.0; y <= 80; y += 8 {
			p := Pt(x, y)
			g.Insert(id, p)
			pts = append(pts, p)
			id++
		}
	}
	for _, radius := range []float64{cell * 3.5, cell * 5, cell * 7.2} {
		center := Pt(3, -4)
		got := g.AppendNeighborhood(nil, center, radius)
		present := make(map[int32]bool, len(got))
		for _, id := range got {
			present[id] = true
		}
		for i, p := range pts {
			if center.Dist(p) <= radius && !present[int32(i)] {
				t.Fatalf("radius %v: in-range id %d at %v missing (got %d ids)",
					radius, i, p, len(got))
			}
		}
	}
}

func mustHashGrid(t *testing.T, cell float64, pts []Point) (*HashGrid, func(int32) Point) {
	t.Helper()
	g, err := NewHashGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	return g, func(id int32) Point { return pts[id] }
}

func TestHashGridWithinRadiusOrderAndTies(t *testing.T) {
	// Ids 1, 2 and 3 sit at the same distance from the query (ties broken
	// by id however the cells enumerate them); 4 is nearest, 0 farthest in
	// range, 5 is out of range.
	pts := []Point{Pt(19, 0), Pt(0, 5), Pt(0, -5), Pt(-5, 0), Pt(1, 1), Pt(40, 40)}
	g, pos := mustHashGrid(t, 7, pts)
	got := g.WithinRadius(Pt(0, 0), 20, pos)
	if want := []int32{4, 1, 2, 3, 0}; !slices.Equal(got, want) {
		t.Errorf("WithinRadius = %v, want %v", got, want)
	}
	// The radius is inclusive.
	if got := g.WithinRadius(Pt(0, 0), 5, pos); !slices.Equal(got, []int32{4, 1, 2, 3}) {
		t.Errorf("WithinRadius at the tie distance = %v, want [4 1 2 3]", got)
	}
}

// TestGridWithinRadiusOrdering checks WithinRadius against its definition
// over random points on both sides of the origin: every item within the
// radius, nearest first, ties by id.
func TestGridWithinRadiusOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	g, pos := mustHashGrid(t, 7, pts)
	for trial := 0; trial < 20; trial++ {
		q := Pt(rng.Float64()*240-120, rng.Float64()*240-120)
		radius := rng.Float64() * 60
		got := g.WithinRadius(q, radius, pos)
		var want []int32
		for i, p := range pts {
			if p.Dist2(q) <= radius*radius {
				want = append(want, int32(i))
			}
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Compare(pts[a].Dist2(q), pts[b].Dist2(q))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: WithinRadius(%v, %.1f) = %v, brute force %v", trial, q, radius, got, want)
		}
	}
}

func TestGridWithinRadius(t *testing.T) {
	empty, pos := mustHashGrid(t, 10, nil)
	if got := empty.WithinRadius(Pt(0, 0), 100, pos); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
	g, pos := mustHashGrid(t, 10, []Point{Pt(10, 10), Pt(12, 10), Pt(50, 50)})
	if got := g.WithinRadius(Pt(11, 10), 5, pos); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("WithinRadius = %v, want [0 1]", got)
	}
	if got := g.WithinRadius(Pt(11, 10), -1, pos); got != nil {
		t.Errorf("negative radius = %v, want nil", got)
	}
	if got := g.WithinRadius(Pt(200, 200), 5, pos); len(got) != 0 {
		t.Errorf("far query = %v, want empty", got)
	}
}

func TestGridLen(t *testing.T) {
	g, _ := mustHashGrid(t, 1, nil)
	if g.Len() != 0 {
		t.Fatalf("empty Len = %d", g.Len())
	}
	for i := 0; i < 42; i++ {
		g.Insert(int32(i), Pt(5, 5))
	}
	if g.Len() != 42 {
		t.Errorf("Len = %d, want 42", g.Len())
	}
}

// TestGridClampsOutOfBounds pins the occupied-range clamp. HashGrid has
// no bounds: an item far from all the others is still stored and found.
// Both queries clamp their scan to the cells ever inserted into, so a
// radius of a million kilometres over 10 m cells, about 10¹⁶ cells
// unclamped, returns at once.
func TestGridClampsOutOfBounds(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Pt(float64(i*25-100), float64(i*-13))
	}
	pts = append(pts, Pt(-5000, -5000))
	g, pos := mustHashGrid(t, 10, pts)
	if g.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
	}
	if got := g.WithinRadius(Pt(-5000, -5000), 1, pos); !slices.Equal(got, []int32{10}) {
		t.Errorf("outlying item: WithinRadius = %v, want [10]", got)
	}
	if got := g.WithinRadius(Pt(5, 5), 1e9, pos); len(got) != len(pts) {
		t.Errorf("WithinRadius(1e9) returned %d ids, want all %d", len(got), len(pts))
	}
	if got := g.AppendNeighborhood(nil, Pt(5, 5), 1e9); len(got) != len(pts) {
		t.Errorf("AppendNeighborhood(1e9) returned %d ids, want all %d", len(got), len(pts))
	}
}

// TestHashGridWalkRings checks the ring walk's contract: every item is
// visited exactly once, and after each ring no item of a later ring lies
// nearer than the reported bound, which never decreases. Positions sit on
// a lattice that shares points with the cell borders; queries include
// points far outside the occupied range.
func TestHashGridWalkRings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 600)
	for i := range pts {
		span, off := 100, 200
		if i%8 == 0 {
			span, off = 400, 1000
		}
		pts[i] = Pt(float64(rng.Intn(span)*5-off), float64(rng.Intn(span)*5-off))
	}
	g, pos := mustHashGrid(t, 12.5, pts)
	for trial := 0; trial < 300; trial++ {
		q := Pt(float64(rng.Intn(120)*5-250)+rng.Float64()*float64(trial%2), float64(rng.Intn(120)*5-250))
		if trial%10 == 9 {
			q = Pt(float64(rng.Intn(20000)-10000), 3e4)
		}
		ring := make(map[int32]int)
		var bounds []float64
		g.WalkRings(q, func(ids []int32, next float64) bool {
			for _, id := range ids {
				if _, dup := ring[id]; dup {
					t.Fatalf("trial %d: id %d visited twice", trial, id)
				}
				ring[id] = len(bounds)
			}
			if len(bounds) > 0 && next < bounds[len(bounds)-1] {
				t.Fatalf("trial %d: bound fell from %v to %v", trial, bounds[len(bounds)-1], next)
			}
			bounds = append(bounds, next)
			return true
		})
		if len(ring) != len(pts) {
			t.Fatalf("trial %d: visited %d of %d items", trial, len(ring), len(pts))
		}
		// The bounds never decrease, so the previous ring's is the one to beat.
		for id, r := range ring {
			if r == 0 {
				continue
			}
			if d2, b := pos(id).Dist2(q), bounds[r-1]; d2 < b*b {
				t.Fatalf("trial %d: item %d of ring %d at d²=%v, below the previous ring's bound %v²",
					trial, id, r, d2, b)
			}
		}
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			t.Fatalf("trial %d: last bound %v, want +Inf", trial, bounds[len(bounds)-1])
		}
	}
	calls := 0
	g.WalkRings(Pt(0, 0), func([]int32, float64) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("walk went on after visit returned false: %d calls", calls)
	}
	empty, _ := NewHashGrid(1)
	empty.WalkRings(Pt(0, 0), func([]int32, float64) bool { t.Error("empty grid visited a ring"); return true })
}
