package geo

import (
	"math/rand"
	"testing"
)

// BenchmarkWithinRadius queries a 12 000-point, 8 km square city at a
// 500 m radius over 125 m cells: the WiGLE nearby-SSID query shape.
func BenchmarkWithinRadius(b *testing.B) {
	g, err := NewHashGrid(125)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 12000)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*8000, rng.Float64()*8000)
		g.Insert(int32(i), pts[i])
	}
	pos := func(id int32) Point { return pts[id] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WithinRadius(pts[i%len(pts)], 500, pos)
	}
}
