package heatmap

import (
	"testing"
	"testing/quick"

	"cityhunter/internal/geo"
)

var testBounds = geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))

func mustMap(t *testing.T) *Map {
	t.Helper()
	m, err := New(testBounds, 100)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testBounds, 0); err == nil {
		t.Error("want error for zero cell size")
	}
	if _, err := New(geo.Rect{}, 100); err == nil {
		t.Error("want error for empty bounds")
	}
}

func TestHeatAccumulates(t *testing.T) {
	m := mustMap(t)
	p := geo.Pt(150, 150)
	if m.HeatAt(p) != 0 {
		t.Fatalf("fresh map heat = %d", m.HeatAt(p))
	}
	for i := 0; i < 5; i++ {
		m.AddPhoto(p)
	}
	if m.HeatAt(p) != 5 {
		t.Errorf("heat = %d, want 5", m.HeatAt(p))
	}
	// Same cell, different point.
	if m.HeatAt(geo.Pt(199, 101)) != 5 {
		t.Errorf("same-cell heat = %d, want 5", m.HeatAt(geo.Pt(199, 101)))
	}
	// Different cell unaffected.
	if m.HeatAt(geo.Pt(50, 50)) != 0 {
		t.Errorf("other cell heat = %d, want 0", m.HeatAt(geo.Pt(50, 50)))
	}
	if m.TotalPhotos() != 5 {
		t.Errorf("TotalPhotos = %d", m.TotalPhotos())
	}
}

func TestOutOfBoundsPhotosClamped(t *testing.T) {
	m := mustMap(t)
	m.AddPhoto(geo.Pt(-500, -500))
	m.AddPhoto(geo.Pt(5000, 5000))
	if m.TotalPhotos() != 2 {
		t.Errorf("TotalPhotos = %d, want 2", m.TotalPhotos())
	}
	if m.HeatAt(geo.Pt(0, 0)) != 1 {
		t.Errorf("corner heat = %d, want 1", m.HeatAt(geo.Pt(0, 0)))
	}
}

func TestFromPhotos(t *testing.T) {
	photos := []geo.Point{geo.Pt(10, 10), geo.Pt(15, 12), geo.Pt(900, 900)}
	m, err := FromPhotos(testBounds, 100, photos)
	if err != nil {
		t.Fatal(err)
	}
	if m.HeatAt(geo.Pt(12, 12)) != 2 {
		t.Errorf("heat = %d, want 2", m.HeatAt(geo.Pt(12, 12)))
	}
}

func TestHottestCells(t *testing.T) {
	m := mustMap(t)
	for i := 0; i < 10; i++ {
		m.AddPhoto(geo.Pt(550, 550)) // mall cell
	}
	for i := 0; i < 5; i++ {
		m.AddPhoto(geo.Pt(50, 50)) // lesser spot
	}
	m.AddPhoto(geo.Pt(950, 50))

	cells := m.HottestCells(2)
	if len(cells) != 2 {
		t.Fatalf("HottestCells = %d, want 2", len(cells))
	}
	if cells[0].Photos != 10 || cells[1].Photos != 5 {
		t.Errorf("photo counts = %d,%d want 10,5", cells[0].Photos, cells[1].Photos)
	}
	if !testBounds.Contains(cells[0].Center) {
		t.Errorf("cell center %v outside bounds", cells[0].Center)
	}
	// Zero-count cells are never reported.
	all := m.HottestCells(1000)
	if len(all) != 3 {
		t.Errorf("HottestCells(1000) = %d, want 3 non-empty", len(all))
	}
}

func TestRankWeights(t *testing.T) {
	w := RankWeights(200)
	if len(w) != 200 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] != 200 || w[199] != 1 {
		t.Errorf("w[0]=%v w[199]=%v, want 200 and 1 (paper's assignment)", w[0], w[199])
	}
	if RankWeights(0) != nil || RankWeights(-3) != nil {
		t.Error("non-positive n should return nil")
	}
}

func TestQuickRankWeightsMonotone(t *testing.T) {
	f := func(n uint8) bool {
		w := RankWeights(int(n))
		for i := 1; i < len(w); i++ {
			if w[i] >= w[i-1] || w[i] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDimsAndCellCenter(t *testing.T) {
	m := mustMap(t)
	cols, rows := m.Dims()
	if cols != 11 || rows != 11 {
		t.Errorf("Dims = %d,%d want 11,11", cols, rows)
	}
	if c := m.CellCenter(0, 0); c != geo.Pt(50, 50) {
		t.Errorf("CellCenter(0,0) = %v", c)
	}
	if m.CellSize() != 100 || m.Bounds() != testBounds {
		t.Error("accessors disagree with construction")
	}
}
