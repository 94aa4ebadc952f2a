package wigle

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
)

var testBounds = geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))

func testRecords() []Record {
	return []Record{
		{SSID: "CafeNet", BSSID: "02:00:00:00:00:01", Pos: geo.Pt(100, 100), Open: true},
		{SSID: "CafeNet", BSSID: "02:00:00:00:00:02", Pos: geo.Pt(900, 900), Open: true},
		{SSID: "SecureCorp", BSSID: "02:00:00:00:00:03", Pos: geo.Pt(105, 100), Open: false},
		{SSID: "MallWiFi", BSSID: "02:00:00:00:00:04", Pos: geo.Pt(120, 100), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:05", Pos: geo.Pt(500, 500), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:06", Pos: geo.Pt(505, 500), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:07", Pos: geo.Pt(510, 500), Open: true},
	}
}

func mustDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(testBounds, testRecords())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return db
}

func TestNewRejectsEmptyBounds(t *testing.T) {
	if _, err := New(geo.Rect{}, nil); err == nil {
		t.Error("want error for empty bounds")
	}
}

func TestNewCopiesRecords(t *testing.T) {
	recs := testRecords()
	db, err := New(testBounds, recs)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].SSID = "mutated"
	if db.At(0).SSID == "mutated" {
		t.Error("DB shares caller's slice")
	}
}

func TestLenAndBounds(t *testing.T) {
	db := mustDB(t)
	if db.Len() != 7 {
		t.Errorf("Len = %d, want 7", db.Len())
	}
	if db.Bounds() != testBounds {
		t.Errorf("Bounds = %v", db.Bounds())
	}
}

func TestNearby(t *testing.T) {
	db := mustDB(t)
	got := db.Nearby(geo.Pt(100, 100), 30, false)
	if len(got) != 3 {
		t.Fatalf("Nearby = %d records, want 3", len(got))
	}
	if got[0].SSID != "CafeNet" {
		t.Errorf("nearest = %q, want CafeNet", got[0].SSID)
	}
	open := db.Nearby(geo.Pt(100, 100), 30, true)
	if len(open) != 2 {
		t.Fatalf("open Nearby = %d, want 2 (SecureCorp excluded)", len(open))
	}
	for _, r := range open {
		if !r.Open {
			t.Errorf("openOnly returned secured record %q", r.SSID)
		}
	}
}

// TestNearbyMatchesBruteForce checks the spatial index against its
// definition: every record within the radius, nearest first, ties in
// record order — including records the index holds outside the bounds.
func TestNearbyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]Record, 300)
	for i := range recs {
		// Positions on a 10 m lattice so equal distances actually occur;
		// a quarter of the records lie outside testBounds.
		recs[i] = Record{
			SSID: fmt.Sprintf("net-%d", i),
			Pos:  geo.Pt(float64(rng.Intn(150)*10-250), float64(rng.Intn(150)*10-250)),
			Open: rng.Intn(3) > 0,
		}
	}
	db, err := New(testBounds, recs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := geo.Pt(float64(rng.Intn(160)*10-300), float64(rng.Intn(160)*10-300))
		radius := float64(rng.Intn(400))
		openOnly := trial%2 == 1
		var idx []int
		for i, r := range recs {
			if r.Pos.Dist2(q) <= radius*radius && (r.Open || !openOnly) {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return recs[idx[a]].Pos.Dist2(q) < recs[idx[b]].Pos.Dist2(q)
		})
		want := make([]Record, 0, len(idx))
		for _, i := range idx {
			want = append(want, recs[i])
		}
		if got := db.Nearby(q, radius, openOnly); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Nearby(%v, %v, %v) = %d records, brute force %d (or order differs)",
				trial, q, radius, openOnly, len(got), len(want))
		}
	}
}

func TestNearestSSIDs(t *testing.T) {
	db := mustDB(t)
	got := db.NearestSSIDs(geo.Pt(100, 100), 2)
	want := []string{"CafeNet", "MallWiFi"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NearestSSIDs = %v, want %v", got, want)
	}
}

func TestNearestSSIDsDeduplicates(t *testing.T) {
	db := mustDB(t)
	got := db.NearestSSIDs(geo.Pt(500, 500), 10)
	seen := make(map[string]bool)
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate SSID %q", s)
		}
		seen[s] = true
	}
	// All 4 distinct open SSIDs eventually found even with a big n.
	if len(got) != 3 { // AirportFree, CafeNet, MallWiFi (SecureCorp excluded)
		t.Errorf("found %d SSIDs %v, want 3", len(got), got)
	}
	if got[0] != "AirportFree" {
		t.Errorf("nearest SSID = %q, want AirportFree", got[0])
	}
}

func TestNearestSSIDsZero(t *testing.T) {
	db := mustDB(t)
	if got := db.NearestSSIDs(geo.Pt(0, 0), 0); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
}

// nearestSSIDsDoubling is NearestSSIDs' definition by expanding search:
// query ever larger discs, W/32·2^k, until one holds n distinct open SSIDs
// or the radius passes W+H.
func nearestSSIDsDoubling(db *DB, p geo.Point, n int) []string {
	radius := db.bounds.Width() / 32
	maxR := db.bounds.Width() + db.bounds.Height()
	for {
		seen := make(map[string]bool)
		var out []string
		for _, r := range db.Nearby(p, radius, true) {
			if !seen[r.SSID] {
				seen[r.SSID] = true
				out = append(out, r.SSID)
			}
			if len(out) == n {
				return out
			}
		}
		if radius > maxR {
			return out
		}
		radius *= 2
	}
}

// nearestSSIDsBrute ranks every SSID by its best open record, (d², index),
// among the records within cap of p, and keeps the first n.
func nearestSSIDsBrute(recs []Record, p geo.Point, n int, cap float64) []string {
	type best struct {
		d2 float64
		i  int
	}
	bests := make(map[string]best)
	for i, r := range recs {
		d2 := r.Pos.Dist2(p)
		if !r.Open || d2 > cap*cap {
			continue
		}
		if b, ok := bests[r.SSID]; !ok || d2 < b.d2 {
			bests[r.SSID] = best{d2, i}
		}
	}
	ssids := make([]string, 0, len(bests))
	for s := range bests {
		ssids = append(ssids, s)
	}
	sort.Slice(ssids, func(a, b int) bool {
		x, y := bests[ssids[a]], bests[ssids[b]]
		if x.d2 != y.d2 {
			return x.d2 < y.d2
		}
		return x.i < y.i
	})
	if len(ssids) == 0 {
		return nil
	}
	return ssids[:min(n, len(ssids))]
}

// TestNearestSSIDsMatchesBruteForce checks the ring walk against both
// definitions above on lattice positions (exact distance ties, points on
// cell borders), shared SSIDs, encrypted records, records and query points
// far outside the bounds, and n from 1 past the number of distinct SSIDs.
func TestNearestSSIDsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, bounds := range []geo.Rect{
		testBounds, // 15.625 m cells, search cap 4 km
		geo.NewRect(geo.Pt(-500, 200), geo.Pt(2500, 700)), // wide: 46.875 m cells, cap 3.75 km
		geo.NewRect(geo.Pt(0, 0), geo.Pt(300, 2000)),      // tall: cap from the width alone
	} {
		recs := make([]Record, 1000)
		for i := range recs {
			// Half the records crowd a 400 m block, a tenth scatter up
			// to 6 km out, past the cap, and the rest cover the city.
			span, off := 160, 300
			switch {
			case i%10 == 0:
				span, off = 1200, 6000
			case i%2 == 1:
				span, off = 40, -100
			}
			recs[i] = Record{
				SSID: fmt.Sprintf("net-%d", rng.Intn(200)),
				Pos:  geo.Pt(float64(rng.Intn(span)*10-off), float64(rng.Intn(span)*10-off)),
				Open: rng.Intn(4) > 0,
			}
		}
		db, err := New(bounds, recs)
		if err != nil {
			t.Fatal(err)
		}
		capR := bounds.Width() / 32
		for capR <= bounds.Width()+bounds.Height() {
			capR *= 2
		}
		for trial := 0; trial < 120; trial++ {
			q := geo.Pt(float64(rng.Intn(200)*10-500), float64(rng.Intn(200)*10-500))
			switch trial % 6 {
			case 3: // inside the crowded block
				q = geo.Pt(float64(rng.Intn(40)*10+100), float64(rng.Intn(40)*10+100))
			case 4: // far outside the bounds, near the outlying records
				q = geo.Pt(float64(rng.Intn(1000)*10-5000), float64(rng.Intn(1000)*10-5000))
			case 5: // beyond every record and the cap
				q = geo.Pt(1e5, -3e4)
			}
			n := 1 + rng.Intn(20)
			if trial%7 == 0 { // up to past the ~200 distinct SSIDs
				n = 1 + rng.Intn(250)
			}
			want := nearestSSIDsBrute(recs, q, n, capR)
			if old := nearestSSIDsDoubling(db, q, n); !reflect.DeepEqual(old, want) {
				t.Fatalf("%v trial %d: the two definitions disagree at %v n=%d:\n doubling %v\n brute    %v",
					bounds, trial, q, n, old, want)
			}
			if got := db.NearestSSIDs(q, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: NearestSSIDs(%v, %d) =\n %v\nwant\n %v", bounds, trial, q, n, got, want)
			}
		}
	}
}

func TestCountBySSID(t *testing.T) {
	db := mustDB(t)
	all := db.CountBySSID(false)
	if all["CafeNet"] != 2 || all["SecureCorp"] != 1 || all["AirportFree"] != 3 {
		t.Errorf("counts = %v", all)
	}
	open := db.CountBySSID(true)
	if _, ok := open["SecureCorp"]; ok {
		t.Error("secured SSID counted with openOnly")
	}
}

func TestTopByAPCount(t *testing.T) {
	db := mustDB(t)
	got := db.TopByAPCount(2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].SSID != "AirportFree" || got[0].Count != 3 {
		t.Errorf("top = %+v, want AirportFree x3", got[0])
	}
	if got[1].SSID != "CafeNet" || got[1].Count != 2 {
		t.Errorf("second = %+v, want CafeNet x2", got[1])
	}
	// n beyond the distinct count returns everything.
	if all := db.TopByAPCount(100); len(all) != 3 {
		t.Errorf("TopByAPCount(100) = %d entries, want 3 open SSIDs", len(all))
	}
}

func TestTopByAPCountDeterministicTies(t *testing.T) {
	recs := []Record{
		{SSID: "beta", Pos: geo.Pt(1, 1), Open: true},
		{SSID: "alpha", Pos: geo.Pt(2, 2), Open: true},
	}
	for trial := 0; trial < 5; trial++ {
		db, err := New(testBounds, recs)
		if err != nil {
			t.Fatal(err)
		}
		got := db.TopByAPCount(2)
		if got[0].SSID != "alpha" || got[1].SSID != "beta" {
			t.Fatalf("tie order = %v", got)
		}
	}
}

// heatFixture is a 1 km city with 100 m heat cells: a very hot airport
// cell, two lukewarm cells and cold elsewhere.
func heatFixture(t testing.TB) *heatmap.Map {
	t.Helper()
	m, err := heatmap.New(testBounds, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.AddPhoto(geo.Pt(850, 850))
	}
	for i := 0; i < 3; i++ {
		m.AddPhoto(geo.Pt(150, 150))
		m.AddPhoto(geo.Pt(450, 450))
	}
	return m
}

func TestHeatRanking(t *testing.T) {
	db, err := New(testBounds, []Record{
		// Few APs, all in the hot area — the paper's airport case.
		{SSID: "AirportFree", Pos: geo.Pt(850, 850), Open: true},
		{SSID: "AirportFree", Pos: geo.Pt(860, 855), Open: true},
		// Many APs in lukewarm areas.
		{SSID: "ChainShop", Pos: geo.Pt(150, 150), Open: true},
		{SSID: "ChainShop", Pos: geo.Pt(450, 450), Open: true},
		{SSID: "ChainShop", Pos: geo.Pt(750, 150), Open: true},
		{SSID: "ChainShop", Pos: geo.Pt(50, 950), Open: true},
		{SSID: "ColdNet", Pos: geo.Pt(250, 950), Open: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked := db.HeatRanking(heatFixture(t))
	if len(ranked) != 3 {
		t.Fatalf("ranked %d SSIDs", len(ranked))
	}
	if ranked[0].SSID != "AirportFree" {
		t.Errorf("top by heat = %q, want AirportFree (few APs in hot area)", ranked[0].SSID)
	}
	if ranked[0].Heat != 200 {
		t.Errorf("airport heat = %d, want 200", ranked[0].Heat)
	}
	if ranked[1].SSID != "ChainShop" || ranked[1].Heat != 6 {
		t.Errorf("second = %+v", ranked[1])
	}
	if ranked[2].Heat != 0 {
		t.Errorf("cold heat = %d", ranked[2].Heat)
	}
}

func TestHeatRankingDeterministicTies(t *testing.T) {
	hm := heatFixture(t)
	for trial := 0; trial < 5; trial++ {
		db, err := New(testBounds, []Record{
			{SSID: "b", Pos: geo.Pt(1, 1), Open: true},
			{SSID: "a", Pos: geo.Pt(2, 2), Open: true},
			{SSID: "c", Pos: geo.Pt(3, 3), Open: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ranked := db.HeatRanking(hm)
		if ranked[0].SSID != "a" || ranked[1].SSID != "b" || ranked[2].SSID != "c" {
			t.Fatalf("tie order: %v", ranked)
		}
	}
}

// TestHeatRankingOpenOnly checks that heat sums over an SSID's open APs
// only and that an SSID with none is not ranked.
func TestHeatRankingOpenOnly(t *testing.T) {
	db := mustDB(t)
	hm, err := heatmap.New(testBounds, 100)
	if err != nil {
		t.Fatal(err)
	}
	hm.AddPhoto(geo.Pt(500, 500)) // the cell of all three AirportFree APs
	hm.AddPhoto(geo.Pt(100, 100)) // CafeNet, SecureCorp and MallWiFi's cell
	heat := make(map[string]int)
	for _, sh := range db.HeatRanking(hm) {
		heat[sh.SSID] = sh.Heat
	}
	if heat["AirportFree"] != 3 {
		t.Errorf("AirportFree heat = %d, want 3 (one per open AP)", heat["AirportFree"])
	}
	if _, ok := heat["SecureCorp"]; ok {
		t.Error("secured SSID ranked")
	}
	if len(heat) != 3 {
		t.Errorf("ranked %d SSIDs, want the 3 open ones", len(heat))
	}
}

// TestHeatRankingTracksPhotos checks the memo against a mutated heat map
// and a second map: each call must equal a fresh computation.
func TestHeatRankingTracksPhotos(t *testing.T) {
	db := mustDB(t)
	fresh := func(hm *heatmap.Map) []heatmap.SSIDHeat {
		d, err := New(testBounds, db.Records())
		if err != nil {
			t.Fatal(err)
		}
		return d.HeatRanking(hm)
	}
	hm := heatFixture(t)
	before := db.HeatRanking(hm)
	if again := db.HeatRanking(hm); &again[0] != &before[0] {
		t.Error("unchanged heat map recomputed its ranking")
	}
	for i := 0; i < 5; i++ {
		hm.AddPhoto(geo.Pt(900, 900)) // CafeNet's second AP
	}
	after := db.HeatRanking(hm)
	if !reflect.DeepEqual(after, fresh(hm)) {
		t.Errorf("after AddPhoto: memo %v, fresh %v", after, fresh(hm))
	}
	if reflect.DeepEqual(after, before) {
		t.Error("AddPhoto did not change the ranking")
	}
	other, err := heatmap.New(testBounds, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.HeatRanking(other); !reflect.DeepEqual(got, fresh(other)) {
		t.Errorf("second map: memo %v, fresh %v", got, fresh(other))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := mustDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(back.Records(), db.Records()) {
		t.Error("records changed across save/load")
	}
	if back.Bounds() != db.Bounds() {
		t.Error("bounds changed across save/load")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("want error for invalid JSON")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := mustDB(t)
	path := filepath.Join(t.TempDir(), "wigle.json")
	if err := db.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if back.Len() != db.Len() {
		t.Errorf("Len = %d, want %d", back.Len(), db.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	db := mustDB(t)
	recs := db.Records()
	recs[0].SSID = "mutated"
	if db.At(0).SSID == "mutated" {
		t.Error("Records exposes internal slice")
	}
}

func TestInRect(t *testing.T) {
	db := mustDB(t)
	r := geo.NewRect(geo.Pt(90, 90), geo.Pt(130, 110))
	all := db.InRect(r, false)
	if len(all) != 3 { // CafeNet@100, SecureCorp@105, MallWiFi@120
		t.Fatalf("InRect = %d records", len(all))
	}
	open := db.InRect(r, true)
	if len(open) != 2 {
		t.Errorf("open InRect = %d, want 2", len(open))
	}
	if got := db.InRect(geo.NewRect(geo.Pt(2000, 2000), geo.Pt(3000, 3000)), false); len(got) != 0 {
		t.Errorf("far rect returned %d", len(got))
	}
}

func TestDensityPerKm2(t *testing.T) {
	db := mustDB(t)
	// The whole 1 km × 1 km test city holds 7 APs.
	got := db.DensityPerKm2(testBounds, false)
	if got != 7 {
		t.Errorf("density = %v APs/km², want 7", got)
	}
	if db.DensityPerKm2(geo.Rect{}, false) != 0 {
		t.Error("degenerate rect density != 0")
	}
}
