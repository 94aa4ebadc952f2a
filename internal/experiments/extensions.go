package experiments

import (
	"context"
	"fmt"
	"strings"

	"cityhunter"
	"cityhunter/internal/core"
)

// ExtensionsResult reproduces the §V-B improvements: the deauthentication
// attack against already-connected phones, and carrier-SSID seeding for
// provisioned (iOS-like) phones.
type ExtensionsResult struct {
	// Deauth compares a crowd where half the phones arrive connected to
	// the venue AP, with the extension off and on.
	DeauthOff cityhunter.Tally
	DeauthOn  cityhunter.Tally
	// Carrier compares default seeding against seeding the carrier SSIDs
	// (which neither WiGLE nor directed probes can reveal).
	CarrierOff     cityhunter.Tally
	CarrierOn      cityhunter.Tally
	CarrierHits    int
	CarrierOffHits int
}

// String renders both comparisons.
func (r *ExtensionsResult) String() string {
	var b strings.Builder
	b.WriteString("§V-B extensions — deauthentication and carrier-SSID seeding (canteen, 30 min)\n")
	fmt.Fprintf(&b, "deauth off (50%% preconnected): %v\n", r.DeauthOff)
	fmt.Fprintf(&b, "deauth on  (50%% preconnected): %v\n", r.DeauthOn)
	b.WriteString("paper: deauthentication forces connected clients to rescan, exposing them\n")
	fmt.Fprintf(&b, "carrier seeding off: %v  (carrier-SSID hits: %d)\n", r.CarrierOff, r.CarrierOffHits)
	fmt.Fprintf(&b, "carrier seeding on : %v  (carrier-SSID hits: %d)\n", r.CarrierOn, r.CarrierHits)
	b.WriteString("paper: provisioned SSIDs like PCCW1x lure subscribers and cannot be learnt\n")
	b.WriteString("       from WiGLE or directed probes\n")
	return b.String()
}

// Extensions runs the four §V-B comparisons.
func Extensions(ctx context.Context, w *cityhunter.World, o Options) (*ExtensionsResult, error) {
	res := &ExtensionsResult{}

	off, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter, cityhunter.LunchSlot,
		o.tableDuration(), o.runOpts(w, 60, cityhunter.WithPreconnected(0.5))...)
	if err != nil {
		return nil, fmt.Errorf("extensions deauth-off: %w", err)
	}
	res.DeauthOff = off.Tally

	on, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter, cityhunter.LunchSlot,
		o.tableDuration(), o.runOpts(w, 60, cityhunter.WithDeauth(0.5))...)
	if err != nil {
		return nil, fmt.Errorf("extensions deauth-on: %w", err)
	}
	res.DeauthOn = on.Tally

	coff, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter, cityhunter.LunchSlot,
		o.tableDuration(), o.runOpts(w, 61)...)
	if err != nil {
		return nil, fmt.Errorf("extensions carrier-off: %w", err)
	}
	res.CarrierOff = coff.Tally
	res.CarrierOffHits = carrierHits(coff)

	ccfg := core.DefaultConfig(core.ModeFull)
	ccfg.CarrierSSIDs = w.PNL.CarrierSSIDs()
	con, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter, cityhunter.LunchSlot,
		o.tableDuration(), o.runOpts(w, 61, cityhunter.WithCoreConfig(ccfg))...)
	if err != nil {
		return nil, fmt.Errorf("extensions carrier-on: %w", err)
	}
	res.CarrierOn = con.Tally
	res.CarrierHits = carrierHits(con)
	return res, nil
}

func carrierHits(r *cityhunter.Result) int {
	if r.Engine == nil {
		return 0
	}
	n := 0
	for _, h := range r.Engine.Hits {
		if h.Source == core.SourceCarrier {
			n++
		}
	}
	return n
}

// AblationVariant is one design knob being toggled.
type AblationVariant struct {
	Name           string
	CanteenHb      float64
	PassageHb      float64
	CanteenVictims int
	PassageVictims int
}

// AblationResult measures how much each design choice contributes: the
// untried rotation (§III-A), the WiGLE seeding (§III-B), the freshness
// buffer, and the adaptive size balancing (§IV-C).
type AblationResult struct {
	Variants []AblationVariant
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — broadcast hit rate per disabled design choice\n")
	fmt.Fprintf(&b, "%-32s %10s %10s\n", "variant", "canteen", "passage")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "%-32s %9.1f%% %9.1f%%\n", v.Name, pct(v.CanteenHb), pct(v.PassageHb))
	}
	return b.String()
}

// Ablation runs every variant in the canteen and the passage.
func Ablation(ctx context.Context, w *cityhunter.World, o Options) (*AblationResult, error) {
	full := core.DefaultConfig(core.ModeFull)

	noRotate := full
	noRotate.RotateUntried = false

	fixed := full
	fixed.DisableAdaptation = true

	fixedSkewed := full
	fixedSkewed.DisableAdaptation = true
	fixedSkewed.InitialFreshness = 2

	noWigle := full
	noWigle.TopCityWide = 0
	noWigle.NearbyCount = 0

	arcStyle := full
	arcStyle.ProportionalAdaptation = true

	prelim := core.DefaultConfig(core.ModePreliminary)

	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full City-Hunter", full},
		{"no untried rotation (MANA-like)", noRotate},
		{"no WiGLE seeding (harvest only)", noWigle},
		{"no freshness buffer (prelim)", prelim},
		{"fixed buffers (no adaptation)", fixed},
		{"fixed buffers 34/2 split", fixedSkewed},
		{"ARC-proportional adaptation", arcStyle},
	}

	res := &AblationResult{}
	for i, v := range variants {
		canteen, err := w.RunContext(ctx, cityhunter.CanteenVenue(), kindFor(v.cfg), cityhunter.LunchSlot,
			o.tableDuration(), o.runOpts(w, int64(70+i), cityhunter.WithCoreConfig(v.cfg))...)
		if err != nil {
			return nil, fmt.Errorf("ablation %s canteen: %w", v.name, err)
		}
		passage, err := w.RunContext(ctx, cityhunter.PassageVenue(), kindFor(v.cfg), cityhunter.MorningRushSlot,
			o.tableDuration(), o.runOpts(w, int64(70+i), cityhunter.WithCoreConfig(v.cfg))...)
		if err != nil {
			return nil, fmt.Errorf("ablation %s passage: %w", v.name, err)
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name:           v.name,
			CanteenHb:      canteen.Tally.BroadcastHitRate(),
			PassageHb:      passage.Tally.BroadcastHitRate(),
			CanteenVictims: canteen.Tally.ConnectedBroadcast,
			PassageVictims: passage.Tally.ConnectedBroadcast,
		})
	}
	return res, nil
}

// kindFor maps an engine config to the scenario attack kind that carries
// it (the scenario only checks the mode).
func kindFor(cfg core.Config) cityhunter.AttackKind {
	if cfg.Mode == core.ModePreliminary {
		return cityhunter.CityHunterPreliminary
	}
	return cityhunter.CityHunter
}
