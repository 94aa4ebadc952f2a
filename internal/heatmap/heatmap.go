// Package heatmap builds the crowd heat map City-Hunter uses to weight
// SSIDs. The paper estimates crowd density from geotagged photos: the number
// of photos posted from an area is taken as a proxy for the number of people
// there. This package bins photo locations into a uniform grid, exposes the
// heat at any point (wigle.DB.HeatRanking sums it over each SSID's APs into
// per-SSID heat values), and assigns initial database weights by the
// rank-ratio method of Barron & Barrett: with N ranked items the top item
// gets weight N and the bottom item weight 1.
package heatmap

import (
	"fmt"
	"sort"

	"cityhunter/internal/geo"
)

// Map is a photo-density heat grid over a bounded area.
type Map struct {
	bounds   geo.Rect
	cellSize float64
	cols     int
	rows     int
	counts   []int
	total    int
}

// New returns an empty heat map over bounds with cellSize-metre cells.
func New(bounds geo.Rect, cellSize float64) (*Map, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("heatmap: cell size %v must be positive", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("heatmap: bounds %v have no area", bounds)
	}
	cols := int(bounds.Width()/cellSize) + 1
	rows := int(bounds.Height()/cellSize) + 1
	return &Map{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		counts:   make([]int, cols*rows),
	}, nil
}

// FromPhotos builds a heat map directly from photo locations.
func FromPhotos(bounds geo.Rect, cellSize float64, photos []geo.Point) (*Map, error) {
	m, err := New(bounds, cellSize)
	if err != nil {
		return nil, err
	}
	for _, p := range photos {
		m.AddPhoto(p)
	}
	return m, nil
}

// AddPhoto records one geotagged photo. Photos outside the bounds are
// clamped to the border cell.
func (m *Map) AddPhoto(p geo.Point) {
	m.counts[m.cell(p)]++
	m.total++
}

func (m *Map) cell(p geo.Point) int {
	cx := int((p.X - m.bounds.Min.X) / m.cellSize)
	cy := int((p.Y - m.bounds.Min.Y) / m.cellSize)
	cx = min(max(cx, 0), m.cols-1)
	cy = min(max(cy, 0), m.rows-1)
	return cy*m.cols + cx
}

// TotalPhotos returns the number of photos added.
func (m *Map) TotalPhotos() int { return m.total }

// HeatAt returns the photo count of the cell containing p.
func (m *Map) HeatAt(p geo.Point) int { return m.counts[m.cell(p)] }

// Bounds returns the mapped area.
func (m *Map) Bounds() geo.Rect { return m.bounds }

// CellSize returns the grid cell edge in metres.
func (m *Map) CellSize() float64 { return m.cellSize }

// Dims returns the grid dimensions (columns, rows).
func (m *Map) Dims() (cols, rows int) { return m.cols, m.rows }

// CellCenter returns the centre point of cell (cx, cy).
func (m *Map) CellCenter(cx, cy int) geo.Point {
	return geo.Pt(
		m.bounds.Min.X+(float64(cx)+0.5)*m.cellSize,
		m.bounds.Min.Y+(float64(cy)+0.5)*m.cellSize,
	)
}

// Cell is one grid cell with its photo count, used for hot-spot reports.
type Cell struct {
	Col, Row int
	Center   geo.Point
	Photos   int
}

// HottestCells returns the n cells with the highest photo counts,
// descending, ties broken by (row, col) for determinism. This is what the
// Figure 4 report prints: the red areas of the map.
func (m *Map) HottestCells(n int) []Cell {
	cells := make([]Cell, 0, n)
	for cy := 0; cy < m.rows; cy++ {
		for cx := 0; cx < m.cols; cx++ {
			c := m.counts[cy*m.cols+cx]
			if c == 0 {
				continue
			}
			cells = append(cells, Cell{Col: cx, Row: cy, Center: m.CellCenter(cx, cy), Photos: c})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Photos != cells[j].Photos {
			return cells[i].Photos > cells[j].Photos
		}
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
	if n < len(cells) {
		cells = cells[:n]
	}
	return cells
}

// SSIDHeat is an SSID with its accumulated heat value: the sum of the heat
// at each of its AP positions (wigle.DB.HeatRanking ranks them).
type SSIDHeat struct {
	SSID string `json:"ssid"`
	Heat int    `json:"heat"`
}

// RankWeights assigns the paper's rank-based initial weights to an ordered
// ranking (best first): with n items, item 0 gets weight n and item n-1
// gets weight 1.
func RankWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(n - i)
	}
	return w
}
