package core

import (
	"fmt"
	"testing"
	"time"

	"cityhunter/internal/citygen"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
)

// benchEngine builds a full-mode engine with a large harvested database.
func benchEngine(b *testing.B, entries int) *Engine {
	b.Helper()
	e, err := NewEngine(DefaultConfig(ModeFull), nil)
	if err != nil {
		b.Fatal(err)
	}
	src := ieee80211.MAC{0x02, 9, 9, 9, 9, 9}
	for i := 0; i < entries; i++ {
		e.HarvestDirect(0, lnk(src), fmt.Sprintf("Net-%05d", i))
	}
	return e
}

func BenchmarkBroadcastReplyFreshClient(b *testing.B) {
	e := benchEngine(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			b.Fatalf("batch = %d", len(got))
		}
	}
}

// BenchmarkBroadcastReplyInstrumented mirrors BroadcastReplyFreshClient
// with the metrics registry armed; comparing the two bounds the cost of
// the observability hooks (the nil-check fast path when off, one counter
// increment and one histogram observation when on).
func BenchmarkBroadcastReplyInstrumented(b *testing.B) {
	e := benchEngine(b, 2000)
	e.Instrument(&obs.Runtime{Metrics: obs.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			b.Fatalf("batch = %d", len(got))
		}
	}
}

func BenchmarkBroadcastReplyRotatingClient(b *testing.B) {
	e := benchEngine(b, 2000)
	mac := ieee80211.MAC{0x02, 1, 1, 1, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BroadcastReply(time.Duration(i), lnk(mac), 40)
		if e.SentCount(mac) >= 2000 {
			// Exhausted: start a new client to keep the work uniform.
			b.StopTimer()
			mac[5]++
			b.StartTimer()
		}
	}
}

func BenchmarkHarvestDirect(b *testing.B) {
	e := benchEngine(b, 0)
	src := ieee80211.MAC{0x02, 9, 9, 9, 9, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HarvestDirect(time.Duration(i), lnk(src), fmt.Sprintf("H-%07d", i))
	}
}

func BenchmarkRecordHit(b *testing.B) {
	e := benchEngine(b, 512)
	victim := ieee80211.MAC{0x02, 1, 1, 1, 1, 1}
	e.BroadcastReply(0, lnk(victim), 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RecordHit(time.Duration(i), lnk(victim), fmt.Sprintf("Net-%05d", i%512))
	}
}

// BenchmarkNewEngine times seeding one full-mode attacker at a venue of
// the default seed-1 city: top-200 heat ranking, 100 nearest SSIDs and
// the carrier SSIDs. The world's heat ranking and open-AP index are
// built before the timer starts, as they are for every engine but the
// first on a world.
func BenchmarkNewEngine(b *testing.B) {
	city, err := citygen.Generate(citygen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	hm, err := heatmap.FromPhotos(city.Bounds, 200, city.Photos)
	if err != nil {
		b.Fatal(err)
	}
	seed := &SeedData{DB: city.DB, HeatMap: hm, Position: city.Hotspots[0].Center}
	cfg := DefaultConfig(ModeFull)
	if _, err := NewEngine(cfg, seed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(cfg, seed); err != nil {
			b.Fatal(err)
		}
	}
}
