package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/wigle"
)

func mac(b byte) ieee80211.MAC { return ieee80211.MAC{0x02, 0, 0, 0, 0, b} }

// lnk wraps a bare MAC into the minimal linker.Observation the strategy
// interface consumes.
func lnk(m ieee80211.MAC) linker.Observation { return linker.Observation{MAC: m} }

// clientFor resolves a MAC through the engine's linker to its per-track
// state, or nil when the MAC has never been observed.
func (e *Engine) clientFor(m ieee80211.MAC) *clientTrack {
	id, ok := e.linker.Lookup(m)
	if !ok {
		return nil
	}
	return e.clients[id]
}

// entryByID returns the database entry with the given dense id, or nil.
func (e *Engine) entryByID(id int) *entry {
	for _, en := range e.db.byWeight {
		if en.insertOrder == id {
			return en
		}
	}
	return nil
}

// seedData builds a small city: one very hot venue SSID, a few chains, and
// cafés near the attack position at (0,0).
func seedData(t testing.TB) *SeedData {
	t.Helper()
	bounds := geo.NewRect(geo.Pt(-1000, -1000), geo.Pt(1000, 1000))
	var recs []wigle.Record
	addAP := func(ssid string, p geo.Point, open bool) {
		recs = append(recs, wigle.Record{SSID: ssid, BSSID: fmt.Sprintf("0a:00:00:00:00:%02x", len(recs)), Pos: p, Open: open})
	}
	// Hot venue: few APs in a crowded spot.
	for i := 0; i < 3; i++ {
		addAP("HotVenue WiFi", geo.Pt(800, 800+float64(i)), true)
	}
	// Chain: many APs spread out.
	for i := 0; i < 30; i++ {
		addAP("ChainMart Free", geo.Pt(float64(-900+i*60), -500), true)
	}
	// Cafés near the attacker.
	for i := 0; i < 8; i++ {
		addAP(fmt.Sprintf("NearCafe-%d", i), geo.Pt(float64(10+i*5), 0), true)
	}
	// A long tail of unique shops so the popularity ranking is deep
	// enough to grow ghost lists behind the buffers.
	for i := 0; i < 120; i++ {
		addAP(fmt.Sprintf("Shop-%03d Free", i), geo.Pt(float64(-900+i*15), 600), true)
	}
	// A secured network that must never be seeded.
	addAP("SecuredCorp", geo.Pt(5, 5), false)

	db, err := wigle.New(bounds, recs)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := heatmap.New(bounds, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		hm.AddPhoto(geo.Pt(810, 810)) // the hot venue
	}
	for i := 0; i < 50; i++ {
		hm.AddPhoto(geo.Pt(-600, -500)) // some chain foot traffic
	}
	return &SeedData{DB: db, HeatMap: hm, Position: geo.Pt(0, 0)}
}

// TestNewEngineConcurrentSeeding seeds engines at three positions from
// many goroutines on one fresh world, so the first nearby selection and
// the first heat ranking race to build the world's caches (CI runs it
// under -race). Every database must equal the one seeded alone at the
// same position on an identical world.
func TestNewEngineConcurrentSeeding(t *testing.T) {
	cfg := DefaultConfig(ModeFull)
	positions := []geo.Point{geo.Pt(0, 0), geo.Pt(-600, -500), geo.Pt(800, 800)}
	want := make([][]EntryInfo, len(positions))
	for i, p := range positions {
		sd := seedData(t)
		sd.Position = p
		e, err := NewEngine(cfg, sd)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e.TopEntries(e.DBSize())
	}
	world := seedData(t)
	got := make([][]EntryInfo, 12)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sd := *world
			sd.Position = positions[g%len(positions)]
			e, err := NewEngine(cfg, &sd)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = e.TopEntries(e.DBSize())
		}()
	}
	wg.Wait()
	for g, entries := range got {
		if !reflect.DeepEqual(entries, want[g%len(positions)]) {
			t.Errorf("goroutine %d at %v: seeded database differs from a lone seeding", g, positions[g%len(positions)])
		}
	}
}

func newFull(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig(ModeFull)
	cfg.TopCityWide = 100
	cfg.NearbyCount = 20
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(cfg, seedData(t))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad mode", func(c *Config) { c.Mode = Mode(0) }},
		{"zero budget", func(c *Config) { c.ReplyBudget = 0 }},
		{"negative seeds", func(c *Config) { c.TopCityWide = -1 }},
		{"negative ghosts", func(c *Config) { c.GhostSize = -1 }},
		{"ghosts eat budget", func(c *Config) { c.GhostPicks = 20 }},
		{"freshness too big", func(c *Config) { c.InitialFreshness = 40 }},
		{"freshness below min", func(c *Config) { c.InitialFreshness = 1; c.MinBuffer = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(ModeFull)
			tt.mutate(&cfg)
			if _, err := NewEngine(cfg, nil); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestSeeding(t *testing.T) {
	e := newFull(t, nil)
	if s := e.Summary(); s.SeededSize == 0 || s.DBSize != s.SeededSize {
		t.Fatalf("seeded/db = %d/%d", s.SeededSize, s.DBSize)
	}
	top := e.TopEntries(3)
	if top[0].SSID != "HotVenue WiFi" {
		t.Errorf("top entry = %q, want the heat-ranked venue", top[0].SSID)
	}
	if top[0].Weight < top[1].Weight {
		t.Error("top entries not weight-ordered")
	}
	// Secured networks never enter the database.
	for _, en := range e.TopEntries(e.DBSize()) {
		if en.SSID == "SecuredCorp" {
			t.Error("secured SSID seeded")
		}
	}
}

func TestSeedingNearbySource(t *testing.T) {
	e := newFull(t, nil)
	foundNearby := false
	for _, en := range e.TopEntries(e.DBSize()) {
		if strings.HasPrefix(en.SSID, "NearCafe-") {
			foundNearby = true
			if en.Source != SourceNearby && en.Source != SourceWiGLE {
				t.Errorf("near café source = %v", en.Source)
			}
		}
	}
	if !foundNearby {
		t.Error("no nearby cafés seeded")
	}
}

func TestCarrierSeeding(t *testing.T) {
	e := newFull(t, func(c *Config) {
		c.CarrierSSIDs = []string{"PCCW1x"}
		c.CarrierWeight = 500
	})
	top := e.TopEntries(1)
	if top[0].SSID != "PCCW1x" || top[0].Source != SourceCarrier {
		t.Errorf("top = %+v, want carrier-seeded PCCW1x", top[0])
	}
}

func TestNilSeedStartsEmpty(t *testing.T) {
	e, err := NewEngine(DefaultConfig(ModeFull), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.DBSize() != 0 {
		t.Errorf("DBSize = %d", e.DBSize())
	}
	if got := e.BroadcastReply(0, lnk(mac(1)), 40); len(got) != 0 {
		t.Errorf("reply from empty DB = %v", got)
	}
}

func TestHarvestDirect(t *testing.T) {
	e, err := NewEngine(DefaultConfig(ModeFull), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.HarvestDirect(0, lnk(mac(1)), "NewNet")
	if e.DBSize() != 1 {
		t.Fatalf("DBSize = %d", e.DBSize())
	}
	en := e.TopEntries(1)[0]
	if en.Source != SourceDirectProbe || en.Weight != 1 {
		t.Errorf("entry = %+v", en)
	}
	// Re-sighting bumps weight.
	e.HarvestDirect(0, lnk(mac(2)), "NewNet")
	if w := e.TopEntries(1)[0].Weight; w != 2 {
		t.Errorf("weight after sighting = %v, want 2", w)
	}
	e.HarvestDirect(0, lnk(mac(1)), "")
	if e.DBSize() != 1 {
		t.Error("empty SSID harvested")
	}
}

func TestPreliminaryRotation(t *testing.T) {
	cfg := DefaultConfig(ModePreliminary)
	cfg.TopCityWide = 20
	cfg.NearbyCount = 10
	e, err := NewEngine(cfg, seedData(t))
	if err != nil {
		t.Fatal(err)
	}
	victim := mac(1)
	seen := make(map[string]bool)
	total := 0
	for i := 0; i < 10; i++ {
		batch := e.BroadcastReply(0, lnk(victim), 40)
		for _, s := range batch {
			if seen[s] {
				t.Fatalf("SSID %q resent to the same client (round %d)", s, i)
			}
			seen[s] = true
		}
		total += len(batch)
		if len(batch) == 0 {
			break
		}
	}
	if total != e.DBSize() {
		t.Errorf("rotation covered %d of %d entries", total, e.DBSize())
	}
	if e.SentCount(victim) != total {
		t.Errorf("SentCount = %d, want %d", e.SentCount(victim), total)
	}
}

func TestPreliminaryBatchesAreUnordered(t *testing.T) {
	// The §III design has no weights yet: batches walk the database in
	// an order uncorrelated with popularity (we use SSID order), which
	// is why the paper's preliminary passage hit rate is so low.
	cfg := DefaultConfig(ModePreliminary)
	cfg.TopCityWide = 20
	cfg.NearbyCount = 10
	e, err := NewEngine(cfg, seedData(t))
	if err != nil {
		t.Fatal(err)
	}
	e.BroadcastReply(0, lnk(mac(1)), 40) // per-client state must not leak
	batch := e.BroadcastReply(0, lnk(mac(2)), 40)
	if len(batch) < 2 {
		t.Fatalf("batch = %v", batch)
	}
	for i := 1; i < len(batch); i++ {
		if batch[i] < batch[i-1] {
			t.Fatalf("preliminary batch not in storage (SSID) order at %d: %q < %q",
				i, batch[i], batch[i-1])
		}
	}
	// The full design, by contrast, leads with the top-weight entry.
	fe := newFull(t, nil)
	fb := fe.BroadcastReply(0, lnk(mac(2)), 40)
	if fb[0] != "HotVenue WiFi" {
		t.Errorf("full mode first SSID = %q, want top-weight entry", fb[0])
	}
}

func TestRotationDisabledResendsHead(t *testing.T) {
	e := newFull(t, func(c *Config) { c.RotateUntried = false })
	a := e.BroadcastReply(0, lnk(mac(1)), 40)
	b := e.BroadcastReply(0, lnk(mac(1)), 40)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("batch lengths %d/%d", len(a), len(b))
	}
	inA := make(map[string]bool, len(a))
	for _, s := range a {
		inA[s] = true
	}
	same := 0
	for _, s := range b {
		if inA[s] {
			same++
		}
	}
	// Ghost picks are random, so allow up to 2×GhostPicks churn; the
	// regular part must repeat (MANA's flaw, kept for the ablation).
	if same < len(a)-2*e.cfg.GhostPicks {
		t.Errorf("only %d/%d repeated with rotation off", same, len(a))
	}
}

func TestBatchRespectsLimit(t *testing.T) {
	e := newFull(t, nil)
	if got := e.BroadcastReply(0, lnk(mac(1)), 10); len(got) > 10 {
		t.Errorf("batch = %d > limit 10", len(got))
	}
	if got := e.BroadcastReply(0, lnk(mac(2)), 0); got != nil {
		t.Errorf("batch with zero limit = %v", got)
	}
}

func TestBatchNoDuplicates(t *testing.T) {
	e := newFull(t, nil)
	// Create freshness entries that also rank high by weight, to tempt
	// double selection.
	e.RecordHit(time.Second, lnk(mac(9)), "HotVenue WiFi")
	e.RecordHit(2*time.Second, lnk(mac(9)), "ChainMart Free")
	for i := byte(1); i < 20; i++ {
		batch := e.BroadcastReply(0, lnk(mac(i)), 40)
		seen := make(map[string]bool, len(batch))
		for _, s := range batch {
			if seen[s] {
				t.Fatalf("duplicate %q in one batch", s)
			}
			seen[s] = true
		}
	}
}

func TestFullModeUsesFreshness(t *testing.T) {
	e := newFull(t, func(c *Config) {
		c.InitialFreshness = 8
		c.HitWeightDelta = 0 // keep the hit SSID's weight low
	})
	// Give a low-weight harvested SSID a very recent hit.
	e.HarvestDirect(0, lnk(mac(50)), "ObscureShared")
	e.RecordHit(time.Minute, lnk(mac(50)), "ObscureShared")

	batch := e.BroadcastReply(time.Minute+time.Second, lnk(mac(1)), 40)
	found := false
	for _, s := range batch {
		if s == "ObscureShared" {
			found = true
		}
	}
	if !found {
		t.Error("recently hit low-weight SSID missing from batch; FB not working")
	}
}

func TestPreliminaryIgnoresFreshness(t *testing.T) {
	cfg := DefaultConfig(ModePreliminary)
	cfg.TopCityWide = 20
	cfg.NearbyCount = 10
	cfg.HitWeightDelta = 0
	e, err := NewEngine(cfg, seedData(t))
	if err != nil {
		t.Fatal(err)
	}
	e.HarvestDirect(0, lnk(mac(50)), "ObscureShared")
	e.RecordHit(time.Minute, lnk(mac(50)), "ObscureShared")
	batch := e.BroadcastReply(time.Minute+time.Second, lnk(mac(1)), 40)
	smallDB := e.DBSize() <= 40
	for _, s := range batch {
		if s == "ObscureShared" && !smallDB {
			t.Error("preliminary mode served a freshness pick")
		}
	}
}

func TestAdaptationGrowsPopularityOnPBGhostHit(t *testing.T) {
	e := newFull(t, nil)
	_, fb0 := e.BufferSizes()
	// Forge a PB-ghost attribution: send a batch, then find a client
	// whose record contains a popularity-ghost SSID and hit it.
	ssid := e.ghostHitSetup(t, KindPopularityGhost, mac(1))
	e.RecordHit(time.Second, lnk(mac(1)), ssid)
	_, fb1 := e.BufferSizes()
	if fb1 != fb0-1 {
		t.Errorf("FB size %d -> %d, want shrink by 1 on PB-ghost hit", fb0, fb1)
	}
}

// ghostHitSetup sends batches to the given client until one contains an
// SSID attributed to the wanted ghost kind, and returns that SSID.
func (e *Engine) ghostHitSetup(t *testing.T, kind BufferKind, victim ieee80211.MAC) string {
	t.Helper()
	if kind == KindFreshnessGhost {
		// Populate enough freshness entries to form a ghost list. Use
		// the LOWEST-weight entries so the Popularity Buffer does not
		// swallow them before the Freshness Buffer sees them.
		rank := e.db.popularityRank()
		want := e.cfg.InitialFreshness + e.cfg.GhostSize + 5
		base := time.Second
		for i := 0; i < want && i < len(rank); i++ {
			en := rank[len(rank)-1-i]
			e.db.recordHit(en, base+time.Duration(i)*time.Second, 0)
		}
	}
	for round := 0; round < 50; round++ {
		e.BroadcastReply(time.Duration(round)*time.Second, lnk(victim), e.cfg.ReplyBudget)
		tr := e.clientFor(victim)
		// Scan in entry-id order so the returned SSID is deterministic.
		for id, k := range tr.sent {
			if BufferKind(k) == kind {
				return e.entryByID(id).ssid
			}
		}
	}
	t.Fatalf("no %v pick observed in 50 rounds", kind)
	return ""
}

func TestAdaptationGrowsFreshnessOnFBGhostHit(t *testing.T) {
	e := newFull(t, nil)
	ssid := e.ghostHitSetup(t, KindFreshnessGhost, mac(1))
	_, fb0 := e.BufferSizes()
	e.RecordHit(time.Hour, lnk(mac(1)), ssid)
	_, fb1 := e.BufferSizes()
	if fb1 != fb0+1 {
		t.Errorf("FB size %d -> %d, want grow by 1 on FB-ghost hit", fb0, fb1)
	}
}

func TestAdaptationClampedAtMin(t *testing.T) {
	e := newFull(t, func(c *Config) { c.InitialFreshness = 2; c.MinBuffer = 2 })
	// Repeated PB-ghost hits cannot push FB below MinBuffer.
	for i := 0; i < 10; i++ {
		ssid := e.ghostHitSetup(t, KindPopularityGhost, mac(byte(10+i)))
		e.RecordHit(time.Duration(i)*time.Second, lnk(mac(byte(10+i))), ssid)
	}
	_, fb := e.BufferSizes()
	if fb < e.cfg.MinBuffer {
		t.Errorf("FB size %d below MinBuffer %d", fb, e.cfg.MinBuffer)
	}
}

func TestRecordHitAttribution(t *testing.T) {
	e := newFull(t, nil)
	victim := mac(1)
	batch := e.BroadcastReply(0, lnk(victim), 40)
	if len(batch) == 0 {
		t.Fatal("empty batch")
	}
	e.RecordHit(time.Second, lnk(victim), batch[0])
	hits := e.Hits()
	if len(hits) != 1 {
		t.Fatalf("hits = %d", len(hits))
	}
	h := hits[0]
	if h.MAC != victim || h.SSID != batch[0] || h.At != time.Second {
		t.Errorf("hit = %+v", h)
	}
	if !h.Source.FromWiGLE() {
		t.Errorf("source = %v, want WiGLE-side for a seeded entry", h.Source)
	}
	if !h.Kind.FromPopularity() && !h.Kind.FromFreshness() {
		t.Errorf("kind = %v", h.Kind)
	}
}

func TestRecordHitMirrorAttribution(t *testing.T) {
	e := newFull(t, nil)
	victim := mac(2)
	e.HarvestDirect(0, lnk(victim), "TheirOpenNet")
	e.RecordHit(time.Second, lnk(victim), "TheirOpenNet")
	h := e.Hits()[0]
	if h.Kind != KindMirror {
		t.Errorf("kind = %v, want mirror", h.Kind)
	}
	if h.Source != SourceDirectProbe {
		t.Errorf("source = %v, want direct-probe", h.Source)
	}
}

func TestHarvestedSSIDAlreadyInWiGLEKeepsSource(t *testing.T) {
	e := newFull(t, nil)
	e.HarvestDirect(0, lnk(mac(1)), "ChainMart Free") // already seeded
	for _, en := range e.TopEntries(e.DBSize()) {
		if en.SSID == "ChainMart Free" && en.Source == SourceDirectProbe {
			t.Error("WiGLE-seeded entry re-attributed to direct probe")
		}
	}
}

func TestSamples(t *testing.T) {
	e := newFull(t, nil)
	e.SampleState(0)
	e.HarvestDirect(0, lnk(mac(1)), "New1")
	e.SampleState(time.Minute)
	s := e.Summary().Samples
	if len(s) != 2 {
		t.Fatalf("samples = %d", len(s))
	}
	if s[1].DBSize != s[0].DBSize+1 {
		t.Errorf("DB size series = %d -> %d", s[0].DBSize, s[1].DBSize)
	}
	if s[0].PB+s[0].FB != e.cfg.ReplyBudget-2*e.cfg.GhostPicks {
		t.Errorf("PB+FB = %d", s[0].PB+s[0].FB)
	}
}

func TestBufferSizesPreliminary(t *testing.T) {
	cfg := DefaultConfig(ModePreliminary)
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, fb := e.BufferSizes()
	if fb != 0 || pb != cfg.ReplyBudget {
		t.Errorf("pb/fb = %d/%d", pb, fb)
	}
}

func TestModeAndKindStrings(t *testing.T) {
	for _, s := range []fmt.Stringer{
		ModePreliminary, ModeFull, Mode(9),
		KindPopularity, KindPopularityGhost, KindFreshness, KindFreshnessGhost, KindMirror, BufferKind(0),
		SourceWiGLE, SourceNearby, SourceDirectProbe, SourceCarrier, Source(0),
	} {
		if s.String() == "" {
			t.Errorf("empty String for %#v", s)
		}
	}
}

func TestEngineNames(t *testing.T) {
	full := newFull(t, nil)
	if full.Name() != "City-Hunter" {
		t.Errorf("Name = %q", full.Name())
	}
	cfg := DefaultConfig(ModePreliminary)
	pre, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Name() != "City-Hunter (preliminary)" {
		t.Errorf("Name = %q", pre.Name())
	}
}

func TestFullRotationEventuallyExhausts(t *testing.T) {
	e := newFull(t, nil)
	victim := mac(7)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		batch := e.BroadcastReply(time.Duration(i)*time.Second, lnk(victim), 40)
		if len(batch) == 0 {
			break
		}
		for _, s := range batch {
			if seen[s] {
				t.Fatalf("SSID %q resent in full mode", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != e.DBSize() {
		t.Errorf("covered %d of %d entries", len(seen), e.DBSize())
	}
}

// TestBroadcastReplyRepeatClientAllocs pins the reply path's allocation
// budget: for a device the engine already tracks, a reply allocates the
// returned slice and nothing else — no per-reply dedup set, no ghost
// lists, no regrowth of the track's sent record.
func TestBroadcastReplyRepeatClientAllocs(t *testing.T) {
	e := newFull(t, nil)
	harvester := mac(200)
	for i := 0; i < 2000; i++ {
		e.HarvestDirect(0, lnk(harvester), fmt.Sprintf("Net-%04d", i))
	}
	// Hits give the Freshness Buffer and its ghost list entries to serve.
	for i, en := range e.TopEntries(60) {
		e.RecordHit(time.Duration(i)*time.Second, lnk(harvester), en.SSID)
	}
	victim := mac(1)
	e.BroadcastReply(time.Minute, lnk(victim), 40)
	short := 0
	allocs := testing.AllocsPerRun(20, func() {
		if len(e.BroadcastReply(time.Minute, lnk(victim), 40)) != 40 {
			short++
		}
	})
	if short > 0 {
		t.Fatalf("%d replies came back short of the 40-SSID budget", short)
	}
	if allocs > 1 {
		t.Errorf("BroadcastReply for a repeat client allocates %v times per reply, want ≤ 1 (the returned slice)", allocs)
	}
}

func TestProportionalAdaptationSteps(t *testing.T) {
	e := newFull(t, func(c *Config) { c.ProportionalAdaptation = true; c.InitialFreshness = 10 })
	// Accumulate freshness-ghost hits so the opposite counter dominates,
	// then one popularity-ghost hit must step by more than 1.
	for i := 0; i < 6; i++ {
		ssid := e.ghostHitSetup(t, KindFreshnessGhost, mac(byte(40+i)))
		e.RecordHit(time.Duration(i+1)*time.Hour, lnk(mac(byte(40+i))), ssid)
	}
	_, fbBefore := e.BufferSizes()
	ssid := e.ghostHitSetup(t, KindPopularityGhost, mac(99))
	e.RecordHit(100*time.Hour, lnk(mac(99)), ssid)
	_, fbAfter := e.BufferSizes()
	if step := fbBefore - fbAfter; step < 2 {
		t.Errorf("proportional step = %d, want ≥2 after 6 opposing ghost hits", step)
	}
	if fbAfter < e.cfg.MinBuffer {
		t.Errorf("FB %d below floor", fbAfter)
	}
}

func TestMultiPositionSeeding(t *testing.T) {
	// A shared engine behind two sites seeds the nearby selection once per
	// site: deploying at both the café cluster and the shop row must cover
	// both neighbourhoods.
	sd := seedData(t)
	sd.Positions = []geo.Point{geo.Pt(0, 0), geo.Pt(-900, 600)}
	cfg := DefaultConfig(ModeFull)
	cfg.TopCityWide = 0
	cfg.NearbyCount = 5
	e, err := NewEngine(cfg, sd)
	if err != nil {
		t.Fatal(err)
	}
	cafes, shops := 0, 0
	for _, en := range e.TopEntries(e.DBSize()) {
		if strings.HasPrefix(en.SSID, "NearCafe-") {
			cafes++
		}
		if strings.HasPrefix(en.SSID, "Shop-") {
			shops++
		}
	}
	if cafes == 0 || shops == 0 {
		t.Errorf("two-site seeding covered cafes=%d shops=%d, want both > 0", cafes, shops)
	}

	// Positions with a single entry is identical to Position.
	single := seedData(t)
	single.Positions = []geo.Point{single.Position}
	a, err := NewEngine(DefaultConfig(ModeFull), seedData(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(DefaultConfig(ModeFull), single)
	if err != nil {
		t.Fatal(err)
	}
	if a.DBSize() != b.DBSize() {
		t.Errorf("single Positions db size %d != Position db size %d", b.DBSize(), a.DBSize())
	}
}

func TestAbsorbHitSharesKnowledgeWithoutAttribution(t *testing.T) {
	e, err := NewEngine(DefaultConfig(ModeFull), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Absorbing a remote hit on an unknown SSID inserts it and marks it
	// fresh, but the local hit log and adaptation state stay untouched.
	e.AbsorbHit(time.Minute, "CanteenNet")
	if !e.Knows("CanteenNet") {
		t.Fatal("absorbed SSID not in database")
	}
	if len(e.Hits()) != 0 {
		t.Errorf("absorb appended to the local hit log: %v", e.Hits())
	}
	got := e.BroadcastReply(2*time.Minute, lnk(mac(7)), 40)
	if len(got) != 1 || got[0] != "CanteenNet" {
		t.Errorf("reply after absorb = %v, want the freshly absorbed SSID", got)
	}

	// Absorbing a known SSID bumps its weight past a never-hit peer.
	e2 := newFull(t, nil)
	before := e2.TopEntries(e2.DBSize())
	target := before[len(before)-1].SSID
	head := before[0].Weight
	for i := 0; i < int(head)+10; i++ {
		e2.AbsorbHit(time.Duration(i)*time.Second, target)
	}
	if e2.TopEntries(1)[0].SSID != target {
		t.Errorf("absorbed hits did not promote %q past the head weight %v", target, head)
	}
	if len(e2.Hits()) != 0 {
		t.Error("absorb on seeded engine touched the hit log")
	}

	// Empty SSIDs are ignored.
	e.AbsorbHit(0, "")
	if e.DBSize() != 1 {
		t.Errorf("empty absorb changed the database: size %d", e.DBSize())
	}
}
