// Package wigle implements the offline substitute for the Wireless
// Geographic Logging Engine (WiGLE) that City-Hunter seeds its SSID
// database from. It stores access-point records with geographic locations
// and answers the paper's two selection queries: the SSIDs nearest an
// attack location, and city-wide SSID statistics (AP counts, and — combined
// with a heat map — per-SSID heat values).
//
// The real WiGLE is a crowd-sourced web service; this package holds the
// same record shape in memory with JSON persistence, which preserves the
// behaviour the attack depends on while staying fully offline.
package wigle

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"cityhunter/internal/geo"
)

// Record is one observed access point.
type Record struct {
	// SSID is the network name. Many records may share one SSID (chain
	// shops, city Wi-Fi programmes).
	SSID string `json:"ssid"`
	// BSSID is the AP's MAC in string form.
	BSSID string `json:"bssid"`
	// Pos is the AP location on the city plane.
	Pos geo.Point `json:"pos"`
	// Open reports whether the network is unencrypted. Only open networks
	// are usable by the attacker: association to them needs no credentials.
	Open bool `json:"open"`
	// Venue optionally names the venue or district the AP belongs to.
	Venue string `json:"venue,omitempty"`
}

// DB is an in-memory, spatially indexed collection of Records.
type DB struct {
	records []Record
	index   *geo.HashGrid
	bounds  geo.Rect
}

// SSIDCount is an SSID with its number of APs; the city-wide ranking unit.
type SSIDCount struct {
	SSID  string `json:"ssid"`
	Count int    `json:"count"`
}

// New builds a DB over the given city bounds. Records may lie anywhere;
// bounds only size the spatial index's cells (1/64 of the longer side).
func New(bounds geo.Rect, records []Record) (*DB, error) {
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("wigle: bounds %v have no area", bounds)
	}
	idx, _ := geo.NewHashGrid(max(bounds.Width(), bounds.Height()) / 64) // positive: bounds have area
	db := &DB{
		records: make([]Record, len(records)),
		index:   idx,
		bounds:  bounds,
	}
	copy(db.records, records)
	for i, r := range db.records {
		idx.Insert(int32(i), r.Pos)
	}
	return db, nil
}

// Len returns the number of records.
func (db *DB) Len() int { return len(db.records) }

// Bounds returns the city bounds the DB was built with.
func (db *DB) Bounds() geo.Rect { return db.bounds }

// Records returns a copy of all records.
func (db *DB) Records() []Record {
	out := make([]Record, len(db.records))
	copy(out, db.records)
	return out
}

// At returns the i-th record.
func (db *DB) At(i int) Record { return db.records[i] }

// Nearby returns the records within radius metres of p, nearest first.
// When openOnly is set, encrypted networks are skipped.
func (db *DB) Nearby(p geo.Point, radius float64, openOnly bool) []Record {
	ids := db.index.WithinRadius(p, radius, func(id int32) geo.Point { return db.records[id].Pos })
	out := make([]Record, 0, len(ids))
	for _, id := range ids {
		r := db.records[id]
		if openOnly && !r.Open {
			continue
		}
		out = append(out, r)
	}
	return out
}

// NearestSSIDs returns up to n distinct SSIDs ordered by the distance of
// their closest AP to p. Only open networks are considered: the paper's
// nearby-SSID selection keeps free APs so that association succeeds without
// user interaction.
func (db *DB) NearestSSIDs(p geo.Point, n int) []string {
	if n <= 0 {
		return nil
	}
	// Expand the search ring until n distinct open SSIDs are inside.
	radius := db.bounds.Width() / 32
	maxR := db.bounds.Width() + db.bounds.Height()
	for {
		recs := db.Nearby(p, radius, true)
		seen := make(map[string]bool, n)
		var out []string
		for _, r := range recs {
			if seen[r.SSID] {
				continue
			}
			seen[r.SSID] = true
			out = append(out, r.SSID)
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

// CountBySSID returns the number of APs per SSID. When openOnly is set only
// open APs are counted.
func (db *DB) CountBySSID(openOnly bool) map[string]int {
	counts := make(map[string]int)
	for _, r := range db.records {
		if openOnly && !r.Open {
			continue
		}
		counts[r.SSID]++
	}
	return counts
}

// TopByAPCount returns the n SSIDs with the most open APs, descending, ties
// broken lexicographically for determinism. This is the naive city-wide
// ranking that Table IV contrasts with the heat ranking.
func (db *DB) TopByAPCount(n int) []SSIDCount {
	counts := db.CountBySSID(true)
	ranked := make([]SSIDCount, 0, len(counts))
	for ssid, c := range counts {
		ranked = append(ranked, SSIDCount{SSID: ssid, Count: c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count > ranked[j].Count
		}
		return ranked[i].SSID < ranked[j].SSID
	})
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}

// OpenPositionsBySSID returns, for each SSID, the positions of its open
// APs. The heat-map ranking consumes this.
func (db *DB) OpenPositionsBySSID() map[string][]geo.Point {
	out := make(map[string][]geo.Point)
	for _, r := range db.records {
		if !r.Open {
			continue
		}
		out[r.SSID] = append(out[r.SSID], r.Pos)
	}
	return out
}

// InRect returns the records inside the axis-aligned rectangle, in
// insertion order. When openOnly is set, encrypted networks are skipped.
func (db *DB) InRect(r geo.Rect, openOnly bool) []Record {
	var out []Record
	for _, rec := range db.records {
		if !r.Contains(rec.Pos) {
			continue
		}
		if openOnly && !rec.Open {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// DensityPerKm2 returns the AP density (APs per square kilometre) inside
// the rectangle.
func (db *DB) DensityPerKm2(r geo.Rect, openOnly bool) float64 {
	area := r.Area() / 1e6
	if area <= 0 {
		return 0
	}
	return float64(len(db.InRect(r, openOnly))) / area
}

// SampleCrowdsourced returns a copy of the database with crowd-sourced
// coverage gaps: whole networks are missing with a probability that falls
// with how observable they are. Networks with at most 3 APs are dropped
// with probability missSmall, networks with 4–20 APs with missMid, and
// larger deployments (chains, venue Wi-Fi) are always present. The real
// WiGLE has exactly this bias — famous networks are thoroughly mapped,
// one-AP cafés often absent — and the gap is what makes over-the-air
// harvesting genuinely useful to City-Hunter (the paper's Fig. 6
// direct-probe-sourced hits).
func (db *DB) SampleCrowdsourced(rng *rand.Rand, missSmall, missMid float64) (*DB, error) {
	if missSmall < 0 || missSmall > 1 || missMid < 0 || missMid > 1 {
		return nil, fmt.Errorf("wigle: miss probabilities (%v, %v) outside [0,1]", missSmall, missMid)
	}
	counts := db.CountBySSID(false)
	keep := make(map[string]bool, len(counts))
	// Decide per SSID in sorted order so the sample is deterministic for
	// a given rng state.
	names := make([]string, 0, len(counts))
	for ssid := range counts {
		names = append(names, ssid)
	}
	sort.Strings(names)
	for _, ssid := range names {
		miss := 0.0
		switch c := counts[ssid]; {
		case c <= 3:
			miss = missSmall
		case c <= 20:
			miss = missMid
		}
		keep[ssid] = rng.Float64() >= miss
	}
	var kept []Record
	for _, r := range db.records {
		if keep[r.SSID] {
			kept = append(kept, r)
		}
	}
	return New(db.bounds, kept)
}

// fileFormat is the persisted JSON envelope.
type fileFormat struct {
	Bounds  geo.Rect `json:"bounds"`
	Records []Record `json:"records"`
}

// Save writes the DB as JSON to w.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(fileFormat{Bounds: db.bounds, Records: db.records}); err != nil {
		return fmt.Errorf("wigle: encode: %w", err)
	}
	return nil
}

// Load reads a DB previously written by Save.
func Load(r io.Reader) (*DB, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("wigle: decode: %w", err)
	}
	return New(ff.Bounds, ff.Records)
}

// SaveFile writes the DB to path.
func (db *DB) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wigle: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return db.Save(f)
}

// LoadFile reads a DB from path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wigle: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
