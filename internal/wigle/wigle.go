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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
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

	// aps is built on the first NearestSSIDs and heat memoises
	// HeatRanking; both are safe for engines seeded concurrently on one
	// world. Everything else is read-only after New.
	apsOnce sync.Once
	aps     []nearAP
	names   []string // SSIDs by the ordinal in nearAP.ssid
	heatMu  sync.Mutex
	heat    heatMemo
}

// nearAP is a record compacted for the nearest-SSID walk: its position and
// its SSID's ordinal, or -1 when the network is encrypted, so the walk
// touches neither full records nor strings.
type nearAP struct {
	pos  geo.Point
	ssid int32
}

// heatMemo is a heat ranking and the heat map state it was computed for.
type heatMemo struct {
	hm     *heatmap.Map
	photos int
	ranked []heatmap.SSIDHeat
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

// nearAPs returns the records compacted for NearestSSIDs, building them on
// first use.
func (db *DB) nearAPs() []nearAP {
	db.apsOnce.Do(func() {
		db.aps = make([]nearAP, len(db.records))
		ordinal := make(map[string]int32)
		for i, r := range db.records {
			s := int32(-1)
			if r.Open {
				var ok bool
				if s, ok = ordinal[r.SSID]; !ok {
					s = int32(len(db.names))
					ordinal[r.SSID] = s
					db.names = append(db.names, r.SSID)
				}
			}
			db.aps[i] = nearAP{pos: r.Pos, ssid: s}
		}
	})
	return db.aps
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
// their closest AP to p, ties by record index. Only open networks are
// considered: the paper's nearby-SSID selection keeps free APs so that
// association succeeds without user interaction. APs farther than the
// search cap, the first W/32·2^k beyond W+H, are never returned.
//
// One pass over the index's cell rings, nearest first, keeps each SSID's
// best (d², index); an SSID whose best lies below the next ring's lower
// bound is settled, and the walk stops once n are.
func (db *DB) NearestSSIDs(p geo.Point, n int) []string {
	if n <= 0 {
		return nil
	}
	capR := db.bounds.Width() / 32
	for maxR := db.bounds.Width() + db.bounds.Height(); capR <= maxR; {
		capR *= 2
	}
	cap2 := capR * capR
	aps := db.nearAPs()
	var (
		best    []nearest
		slot    = make([]int32, len(db.names)) // 1 + index into best; 0: unseen
		pending nearHeap
		settled int
	)
	db.index.WalkRings(p, func(ids []int32, next float64) bool {
		for _, id := range ids {
			ap := &aps[id]
			if ap.ssid < 0 {
				continue
			}
			d2 := ap.pos.Dist2(p)
			if d2 > cap2 {
				continue
			}
			i := slot[ap.ssid] - 1
			if i < 0 {
				i = int32(len(best))
				slot[ap.ssid] = i + 1
				best = append(best, nearest{ssid: ap.ssid, d2: d2, id: id})
			} else if b := &best[i]; d2 < b.d2 || d2 == b.d2 && id < b.id {
				b.d2, b.id = d2, id
			} else {
				continue
			}
			pending.push(nearTip{d2: d2, slot: i})
		}
		// Every later AP lies at d² ≥ next², so a best below it is final.
		next2 := next * next
		for len(pending) > 0 && pending[0].d2 < next2 {
			t := pending.pop()
			if b := &best[t.slot]; !b.settled && b.d2 == t.d2 {
				b.settled = true
				settled++
			}
		}
		return settled < n && next2 <= cap2
	})
	if len(best) == 0 {
		return nil
	}
	slices.SortFunc(best, func(a, b nearest) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]string, min(n, len(best)))
	for i := range out {
		out[i] = db.names[best[i].ssid]
	}
	return out
}

// nearest is an SSID's closest open AP found so far.
type nearest struct {
	d2      float64
	id      int32
	ssid    int32
	settled bool
}

// nearTip is an improvement to an SSID's best d², waiting in a min-heap
// until the ring walk's lower bound passes it; a tip older than the SSID's
// current best is stale and skipped.
type nearTip struct {
	d2   float64
	slot int32
}

// nearHeap is a binary min-heap of tips by d².
type nearHeap []nearTip

func (h *nearHeap) push(t nearTip) {
	s := append(*h, t)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up].d2 <= s[i].d2 {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

func (h *nearHeap) pop() nearTip {
	s := *h
	t, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].d2 < s[c].d2 {
			c++
		}
		if s[i].d2 <= s[c].d2 {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return t
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

// HeatRanking returns every SSID with an open AP and its heat value — the
// sum of hm's heat at each of its open APs — in descending heat order, ties
// broken lexicographically. An SSID with many APs in crowded areas, or a
// few APs in very crowded areas (the paper's airport example), ranks high.
//
// The ranking is computed once per heat map state and shared: the memo is
// keyed by the map and its photo count, which AddPhoto bumps. Callers must
// not modify the returned slice.
func (db *DB) HeatRanking(hm *heatmap.Map) []heatmap.SSIDHeat {
	db.heatMu.Lock()
	defer db.heatMu.Unlock()
	if db.heat.hm == hm && db.heat.photos == hm.TotalPhotos() {
		return db.heat.ranked
	}
	slot := make(map[string]int)
	var ranked []heatmap.SSIDHeat
	for _, r := range db.records {
		if !r.Open {
			continue
		}
		i, ok := slot[r.SSID]
		if !ok {
			i = len(ranked)
			slot[r.SSID] = i
			ranked = append(ranked, heatmap.SSIDHeat{SSID: r.SSID})
		}
		ranked[i].Heat += hm.HeatAt(r.Pos)
	}
	slices.SortFunc(ranked, func(a, b heatmap.SSIDHeat) int {
		if c := cmp.Compare(b.Heat, a.Heat); c != 0 {
			return c
		}
		return cmp.Compare(a.SSID, b.SSID)
	})
	db.heat = heatMemo{hm: hm, photos: hm.TotalPhotos(), ranked: ranked}
	return ranked
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
