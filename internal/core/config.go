package core

import (
	"fmt"
	"math/rand"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/linker"
	"cityhunter/internal/wigle"
)

// Mode selects which stage of the paper's design the engine runs.
type Mode int

// Engine modes.
const (
	// ModePreliminary is the §III design: WiGLE seeding plus per-client
	// untried rotation over the weight-ranked database. No freshness
	// buffer, no adaptation.
	ModePreliminary Mode = iota + 1
	// ModeFull is the §IV design: Popularity and Freshness buffers with
	// ghost lists and adaptive size balancing.
	ModeFull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePreliminary:
		return "preliminary"
	case ModeFull:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config tunes the engine. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Mode selects the preliminary (§III) or full (§IV) design.
	Mode Mode

	// TopCityWide is how many heat-ranked city-wide SSIDs to seed
	// (paper: 200).
	TopCityWide int
	// NearbyCount is how many nearest open SSIDs to seed (paper: 100).
	NearbyCount int

	// ReplyBudget is the per-probe response batch size (paper: 40,
	// the client's scan-window capacity).
	ReplyBudget int
	// GhostSize is the length of each ghost list (paper: 20).
	GhostSize int
	// GhostPicks is how many random ghosts from each list join every
	// batch (paper: 2, i.e. 10 % of 20).
	GhostPicks int
	// InitialFreshness is the starting Freshness Buffer size; the
	// Popularity Buffer gets the rest of the budget.
	InitialFreshness int
	// MinBuffer is the adaptation floor for either buffer.
	MinBuffer int

	// HitWeightDelta is added to an entry's weight on a successful hit.
	HitWeightDelta float64
	// SightingWeightDelta is added when a directed probe re-discloses a
	// known SSID.
	SightingWeightDelta float64
	// HarvestWeight is the initial weight of an SSID first learnt from a
	// directed probe.
	HarvestWeight float64

	// CarrierSSIDs seeds the §V-B carrier networks.
	CarrierSSIDs []string
	// CarrierWeight is their initial weight.
	CarrierWeight float64

	// RotateUntried enables the per-client untried-SSID rotation
	// (§III-A). Disabling it reproduces MANA's resend-the-head flaw for
	// ablation.
	RotateUntried bool
	// DisableAdaptation freezes the buffer sizes at their initial split
	// (the fixed 35-vs-5 alternative the paper argues against in §IV-C).
	DisableAdaptation bool
	// ProportionalAdaptation replaces the paper's ±1 rebalancing with
	// ARC's proportional rule: a ghost hit moves the boundary by
	// max(1, opposite-ghost-hits / own-ghost-hits), converging faster
	// when one side dominates. An ablation knob.
	ProportionalAdaptation bool

	// Seed drives the ghost sampling.
	Seed int64

	// Linker maps observed MACs to device tracks, the seam for the MAC
	// de-anonymisation counterattack. Nil selects the identity
	// linker.MACLinker (one MAC = one device), which reproduces the
	// historical behaviour byte-identically.
	Linker linker.Linker
}

// DefaultConfig returns the paper's parameters for the given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                mode,
		TopCityWide:         200,
		NearbyCount:         100,
		ReplyBudget:         40,
		GhostSize:           20,
		GhostPicks:          2,
		InitialFreshness:    8,
		MinBuffer:           2,
		HitWeightDelta:      1,
		SightingWeightDelta: 1,
		HarvestWeight:       1,
		CarrierWeight:       50,
		RotateUntried:       true,
		Seed:                1,
	}
}

func (cfg Config) validate() error {
	if cfg.Mode != ModePreliminary && cfg.Mode != ModeFull {
		return fmt.Errorf("core: invalid mode %d", int(cfg.Mode))
	}
	if cfg.ReplyBudget <= 0 {
		return fmt.Errorf("core: reply budget %d must be positive", cfg.ReplyBudget)
	}
	if cfg.TopCityWide < 0 || cfg.NearbyCount < 0 {
		return fmt.Errorf("core: negative seeding counts")
	}
	if cfg.GhostSize < 0 || cfg.GhostPicks < 0 {
		return fmt.Errorf("core: negative ghost parameters")
	}
	if cfg.Mode == ModeFull {
		if 2*cfg.GhostPicks >= cfg.ReplyBudget {
			return fmt.Errorf("core: ghost picks %d×2 exceed budget %d", cfg.GhostPicks, cfg.ReplyBudget)
		}
		regular := cfg.ReplyBudget - 2*cfg.GhostPicks
		if cfg.MinBuffer < 0 || 2*cfg.MinBuffer > regular {
			return fmt.Errorf("core: min buffer %d infeasible for budget %d", cfg.MinBuffer, cfg.ReplyBudget)
		}
		if cfg.InitialFreshness < cfg.MinBuffer || cfg.InitialFreshness > regular-cfg.MinBuffer {
			return fmt.Errorf("core: initial freshness %d outside [%d, %d]",
				cfg.InitialFreshness, cfg.MinBuffer, regular-cfg.MinBuffer)
		}
	}
	return nil
}

// SeedData is the offline initialisation input: the WiGLE-substitute
// database, the heat map, and the deployment position.
type SeedData struct {
	DB      *wigle.DB
	HeatMap *heatmap.Map
	// Position is where the attacker will be deployed; the nearby
	// selection is relative to it.
	Position geo.Point
	// Positions, when non-empty, overrides Position with several
	// deployment sites: the engine serves a multi-site deployment behind a
	// shared knowledge plane, so the nearby selection runs once per site.
	Positions []geo.Point
}

// positions returns the seeding positions: Positions when set, else the
// single Position.
func (s *SeedData) positions() []geo.Point {
	if len(s.Positions) > 0 {
		return s.Positions
	}
	return []geo.Point{s.Position}
}

// NewEngine builds a City-Hunter engine and runs database initialisation
// (step 1 of Fig. 3): top city-wide SSIDs by heat value with rank-ratio
// weights, the nearest open SSIDs likewise, and optional carrier SSIDs.
// seed may be nil for an engine that starts with an empty database (it will
// rely purely on harvested SSIDs, useful for ablations).
func NewEngine(cfg Config, seed *SeedData) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lk := cfg.Linker
	if lk == nil {
		lk = linker.NewMACLinker()
	}
	size := len(cfg.CarrierSSIDs)
	if seed != nil {
		size += cfg.TopCityWide + cfg.NearbyCount*len(seed.positions())
	}
	e := &Engine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		db:      newDatabase(size),
		linker:  lk,
		clients: make(map[linker.TrackID]*clientTrack),
		fbSize:  cfg.InitialFreshness,
		ghosts:  make([]*entry, 2*cfg.GhostSize),
	}
	if cfg.Mode == ModePreliminary {
		e.fbSize = 0
	}

	if seed != nil {
		ranked := seed.DB.HeatRanking(seed.HeatMap)
		n := min(cfg.TopCityWide, len(ranked))
		weights := heatmap.RankWeights(n)
		for i := 0; i < n; i++ {
			e.db.add(ranked[i].SSID, SourceWiGLE, weights[i])
		}
		for _, pos := range seed.positions() {
			nearby := seed.DB.NearestSSIDs(pos, cfg.NearbyCount)
			nearWeights := heatmap.RankWeights(len(nearby))
			for i, ssid := range nearby {
				e.db.add(ssid, SourceNearby, nearWeights[i])
			}
		}
	}
	for _, ssid := range cfg.CarrierSSIDs {
		e.db.add(ssid, SourceCarrier, cfg.CarrierWeight)
	}
	e.seededSize = e.db.len()
	return e, nil
}
