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

func TestOpenPositionsBySSID(t *testing.T) {
	db := mustDB(t)
	pos := db.OpenPositionsBySSID()
	if len(pos["AirportFree"]) != 3 {
		t.Errorf("AirportFree positions = %d, want 3", len(pos["AirportFree"]))
	}
	if _, ok := pos["SecureCorp"]; ok {
		t.Error("secured SSID present in open positions")
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
