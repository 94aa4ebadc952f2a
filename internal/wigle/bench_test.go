package wigle_test

import (
	"testing"

	"cityhunter/internal/citygen"
	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
)

// benchCity is the default seed-1 city (8 km square, about 12 500 APs)
// with its 200 m photo heat map, the world every attacker seeds from.
func benchCity(b *testing.B) (*citygen.City, *heatmap.Map) {
	b.Helper()
	city, err := citygen.Generate(citygen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	hm, err := heatmap.FromPhotos(city.Bounds, 200, city.Photos)
	if err != nil {
		b.Fatal(err)
	}
	return city, hm
}

// BenchmarkNearestSSIDs times one attacker's nearby selection, 100 SSIDs,
// at a venue among dense APs and at a city corner where the ring walk
// has to widen.
func BenchmarkNearestSSIDs(b *testing.B) {
	city, _ := benchCity(b)
	for _, at := range []struct {
		name string
		p    geo.Point
	}{
		{"dense", city.Hotspots[0].Center},
		{"sparse_edge", geo.Pt(city.Bounds.Min.X+100, city.Bounds.Max.Y-100)},
	} {
		b.Run(at.name, func(b *testing.B) {
			if got := city.DB.NearestSSIDs(at.p, 100); len(got) != 100 {
				b.Fatalf("found %d SSIDs", len(got))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				city.DB.NearestSSIDs(at.p, 100)
			}
		})
	}
}

// BenchmarkHeatRanking times computing the city-wide heat ranking: each
// iteration adds a photo, so the memo misses every time.
func BenchmarkHeatRanking(b *testing.B) {
	city, hm := benchCity(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.AddPhoto(city.Hotspots[0].Center)
		city.DB.HeatRanking(hm)
	}
}
