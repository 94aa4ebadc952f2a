package plan

import (
	"fmt"
	"math"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
	"cityhunter/internal/scenario"
)

// venueFile is the JSON form of a Venue: the venue payload, each site of a
// deployment payload and each campaign venueSpec. Dwell models are encoded
// by kind so the format stays declarative.
type venueFile struct {
	Name           string           `json:"name"`
	Kind           string           `json:"kind"`
	Position       geo.Point        `json:"position"`
	RadioRange     float64          `json:"radioRange"`
	StartHour      int              `json:"startHour"`
	ArrivalsPerMin []float64        `json:"arrivalsPerMinute"`
	MovingFraction float64          `json:"movingFraction"`
	Static         *staticDwellFile `json:"staticDwell,omitempty"`
	Moving         *movingDwellFile `json:"movingDwell,omitempty"`
	RushSlots      []int            `json:"rushSlots,omitempty"`
}

type staticDwellFile struct {
	MedianMinutes float64 `json:"medianMinutes"`
	Sigma         float64 `json:"sigma"`
	MaxMinutes    float64 `json:"maxMinutes"`
}

type movingDwellFile struct {
	PathLengthMetres float64 `json:"pathLengthMetres"`
	SpeedMinMPS      float64 `json:"speedMinMps"`
	SpeedMaxMPS      float64 `json:"speedMaxMps"`
}

// deploymentFile is the JSON form of a deployment: the sites, the
// knowledge plane and the roaming model. The Base experiment configuration
// is not part of the format — a deployment plan describes where and how to
// deploy, while the city, attack kind and population knobs come from the
// caller.
type deploymentFile struct {
	Sites        []venueFile  `json:"sites"`
	Knowledge    string       `json:"knowledge"`
	SyncEverySec float64      `json:"syncEverySeconds,omitempty"`
	RoamFraction float64      `json:"roamFraction"`
	Transit      *transitFile `json:"transit,omitempty"`
	// Partitions selects the execution engine (0 classic serialized, -1
	// one partition per site, positive an explicit count); omitted for 0
	// so every pre-partitioning plan round-trips byte-identically.
	Partitions int `json:"partitions,omitempty"`
}

type transitFile struct {
	SpeedMinMPS float64 `json:"speedMinMps"`
	SpeedMaxMPS float64 `json:"speedMaxMps"`
}

// campaignFile is the JSON form of a campaign: a list of declarative run
// specs. Attacks are encoded by name.
type campaignFile struct {
	Runs []runFile `json:"runs"`
}

type runFile struct {
	Name string `json:"name,omitempty"`
	// Venue names a built-in venue (passage|canteen|mall|station);
	// VenueSpec embeds a full venue. Exactly one must be set; Encode
	// always writes VenueSpec.
	Venue     string     `json:"venue,omitempty"`
	VenueSpec *venueFile `json:"venueSpec,omitempty"`
	Attack    string     `json:"attack"`
	Slot      int        `json:"slot"`
	Minutes   float64    `json:"minutes"`
	Seed      int64      `json:"seed,omitempty"`

	DirectProberFraction *float64 `json:"directProberFraction,omitempty"`
	ScanIntervalSeconds  *float64 `json:"scanIntervalSeconds,omitempty"`
	ArrivalScale         *float64 `json:"arrivalScale,omitempty"`
	FrameLoss            *float64 `json:"frameLoss,omitempty"`
	CanaryFraction       *float64 `json:"canaryFraction,omitempty"`
	RandomizeMACFraction *float64 `json:"randomizeMacFraction,omitempty"`
	PreconnectedFraction *float64 `json:"preconnectedFraction,omitempty"`
	Deauth               bool     `json:"deauth,omitempty"`
	Sentinel             bool     `json:"sentinel,omitempty"`
	CautiousMirror       bool     `json:"cautiousMirror,omitempty"`
	Randomization        string   `json:"randomization,omitempty"`
	Linker               string   `json:"linker,omitempty"`
}

var kindNames = map[string]scenario.VenueKind{
	"passage": scenario.Passage,
	"canteen": scenario.Canteen,
	"mall":    scenario.Mall,
	"station": scenario.Station,
}

var knowledgeNames = map[string]scenario.KnowledgePlane{
	"isolated":      scenario.Isolated,
	"periodic-sync": scenario.PeriodicSync,
	"shared":        scenario.Shared,
}

// builtinVenues resolves the by-name venue references of hand-written
// campaign runs.
var builtinVenues = map[string]func() scenario.Venue{
	"passage": scenario.PassageVenue,
	"canteen": scenario.CanteenVenue,
	"mall":    scenario.MallVenue,
	"station": scenario.StationVenue,
}

// duration converts n units read from a plan to a Duration. The whole and
// fractional parts convert separately and the fraction rounds to the
// nearest nanosecond, which inverts Duration.Minutes/Seconds: decoding what
// Encode wrote gives back the same Duration, so a re-saved plan keeps its
// bytes. Rounding n*unit in one step is not enough: beyond ~2^51 ns the
// product's float error passes half a nanosecond.
func duration(n float64, unit time.Duration) time.Duration {
	whole, frac := math.Modf(n)
	return time.Duration(whole)*unit + time.Duration(math.Round(frac*float64(unit)))
}

func encodeVenue(v scenario.Venue) (venueFile, error) {
	vf := venueFile{
		Name:           v.Name,
		Position:       v.Position,
		RadioRange:     v.RadioRange,
		StartHour:      v.Profile.StartHour,
		ArrivalsPerMin: v.Profile.PerMinute,
		MovingFraction: v.MovingFraction,
		RushSlots:      v.RushSlots,
	}
	for name, kind := range kindNames {
		if kind == v.Kind {
			vf.Kind = name
		}
	}
	if vf.Kind == "" {
		return venueFile{}, fmt.Errorf("scenario: venue kind %v not encodable", v.Kind)
	}
	switch d := v.StaticDwell.(type) {
	case mobility.StaticDwell:
		vf.Static = &staticDwellFile{
			MedianMinutes: d.Median.Minutes(),
			Sigma:         d.Sigma,
			MaxMinutes:    d.Max.Minutes(),
		}
	case nil:
	default:
		return venueFile{}, fmt.Errorf("scenario: static dwell %T not encodable", v.StaticDwell)
	}
	switch d := v.MovingDwell.(type) {
	case mobility.CorridorDwell:
		vf.Moving = &movingDwellFile{
			PathLengthMetres: d.PathLength,
			SpeedMinMPS:      d.SpeedMin,
			SpeedMaxMPS:      d.SpeedMax,
		}
	case nil:
	default:
		return venueFile{}, fmt.Errorf("scenario: moving dwell %T not encodable", v.MovingDwell)
	}
	return vf, nil
}

// decodeVenue converts a venue's file form and validates it via
// Venue.Validate.
func decodeVenue(vf venueFile) (scenario.Venue, error) {
	kind, ok := kindNames[vf.Kind]
	if !ok {
		return scenario.Venue{}, fmt.Errorf("scenario: unknown venue kind %q", vf.Kind)
	}
	v := scenario.Venue{
		Name:           vf.Name,
		Kind:           kind,
		Position:       vf.Position,
		RadioRange:     vf.RadioRange,
		Profile:        mobility.Profile{StartHour: vf.StartHour, PerMinute: vf.ArrivalsPerMin},
		MovingFraction: vf.MovingFraction,
		RushSlots:      vf.RushSlots,
	}
	if vf.Static != nil {
		v.StaticDwell = mobility.StaticDwell{
			Median: duration(vf.Static.MedianMinutes, time.Minute),
			Sigma:  vf.Static.Sigma,
			Max:    duration(vf.Static.MaxMinutes, time.Minute),
		}
	}
	if vf.Moving != nil {
		v.MovingDwell = mobility.CorridorDwell{
			PathLength: vf.Moving.PathLengthMetres,
			SpeedMin:   vf.Moving.SpeedMinMPS,
			SpeedMax:   vf.Moving.SpeedMaxMPS,
		}
	}
	if err := v.Validate(); err != nil {
		return scenario.Venue{}, fmt.Errorf("scenario: %w", err)
	}
	return v, nil
}

func encodeDeployment(dcfg scenario.DeploymentConfig) (deploymentFile, error) {
	df := deploymentFile{
		RoamFraction: dcfg.RoamFraction,
		Partitions:   dcfg.Partitions,
	}
	for name, plane := range knowledgeNames {
		if plane == dcfg.Knowledge {
			df.Knowledge = name
		}
	}
	if df.Knowledge == "" {
		return deploymentFile{}, fmt.Errorf("scenario: knowledge plane %v not encodable", dcfg.Knowledge)
	}
	if len(dcfg.Sites) == 0 {
		return deploymentFile{}, fmt.Errorf("scenario: deployment needs at least one site")
	}
	for i, v := range dcfg.Sites {
		vf, err := encodeVenue(v)
		if err != nil {
			return deploymentFile{}, fmt.Errorf("scenario: site %d: %w", i, err)
		}
		df.Sites = append(df.Sites, vf)
	}
	if dcfg.SyncEvery > 0 {
		df.SyncEverySec = dcfg.SyncEvery.Seconds()
	}
	if dcfg.Transit != (mobility.TransitModel{}) {
		df.Transit = &transitFile{
			SpeedMinMPS: dcfg.Transit.SpeedMin,
			SpeedMaxMPS: dcfg.Transit.SpeedMax,
		}
	}
	return df, nil
}

// decodeDeployment converts a deployment's file form and validates it via
// DeploymentConfig.Validate. The returned config has an empty Base.
func decodeDeployment(df deploymentFile) (scenario.DeploymentConfig, error) {
	if df.Knowledge == "" {
		df.Knowledge = "isolated"
	}
	plane, ok := knowledgeNames[df.Knowledge]
	if !ok {
		return scenario.DeploymentConfig{}, fmt.Errorf("scenario: unknown knowledge plane %q", df.Knowledge)
	}
	dcfg := scenario.DeploymentConfig{
		Knowledge:    plane,
		RoamFraction: df.RoamFraction,
		SyncEvery:    duration(df.SyncEverySec, time.Second),
		Partitions:   df.Partitions,
	}
	for i, vf := range df.Sites {
		v, err := decodeVenue(vf)
		if err != nil {
			return scenario.DeploymentConfig{}, fmt.Errorf("scenario: site %d: %w", i, err)
		}
		dcfg.Sites = append(dcfg.Sites, v)
	}
	if df.Transit != nil {
		dcfg.Transit = mobility.TransitModel{
			SpeedMin: df.Transit.SpeedMinMPS,
			SpeedMax: df.Transit.SpeedMaxMPS,
		}
	}
	if err := dcfg.Validate(); err != nil {
		return scenario.DeploymentConfig{}, fmt.Errorf("scenario: %w", err)
	}
	return dcfg, nil
}

// encodeSpecs converts campaign specs to their file form. Only the
// declarative spec fields are encodable: a spec carrying a Configure hook
// or a deployment cannot round-trip and is rejected by name.
func encodeSpecs(specs []campaign.Spec) (campaignFile, error) {
	cf := campaignFile{Runs: make([]runFile, len(specs))}
	for i, s := range specs {
		if s.Configure != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): Configure hooks are not serialisable", i, s.Name)
		}
		if s.Deployment != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): deployment specs are not serialisable (persist it as a deployment plan with SavePlan)", i, s.Name)
		}
		venueSpec, err := encodeVenue(s.Venue)
		if err != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): %w", i, s.Name, err)
		}
		attack := campaign.AttackName(s.Attack)
		if attack == "" {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): attack kind %d not encodable", i, s.Name, int(s.Attack))
		}
		rf := runFile{
			Name:                 s.Name,
			VenueSpec:            &venueSpec,
			Attack:               attack,
			Slot:                 s.Slot,
			Minutes:              s.Duration.Minutes(),
			Seed:                 s.Seed,
			DirectProberFraction: s.DirectProberFraction,
			ArrivalScale:         s.ArrivalScale,
			FrameLoss:            s.FrameLoss,
			CanaryFraction:       s.CanaryFraction,
			RandomizeMACFraction: s.RandomizeMACFraction,
			PreconnectedFraction: s.PreconnectedFraction,
			Deauth:               s.Deauth,
			Sentinel:             s.Sentinel,
			CautiousMirror:       s.CautiousMirror,
			Randomization:        s.Randomization,
			Linker:               s.Linker,
		}
		if s.ScanInterval != nil {
			secs := s.ScanInterval.Seconds()
			rf.ScanIntervalSeconds = &secs
		}
		cf.Runs[i] = rf
	}
	return cf, nil
}

// decodeSpecs converts a campaign's file form and validates every spec via
// Spec.Validate, naming the offending run and field in every error.
func decodeSpecs(cf campaignFile) ([]campaign.Spec, error) {
	if len(cf.Runs) == 0 {
		return nil, fmt.Errorf("campaign: file declares no runs")
	}
	specs := make([]campaign.Spec, len(cf.Runs))
	for i, rf := range cf.Runs {
		name := rf.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		s := campaign.Spec{Name: rf.Name, Slot: rf.Slot, Seed: rf.Seed}
		switch {
		case rf.Venue != "" && rf.VenueSpec != nil:
			return nil, fmt.Errorf("campaign: run %d (%s): venue and venueSpec are mutually exclusive", i, name)
		case rf.Venue != "":
			mk, ok := builtinVenues[rf.Venue]
			if !ok {
				return nil, fmt.Errorf("campaign: run %d (%s): unknown venue %q (want passage|canteen|mall|station or a venueSpec)", i, name, rf.Venue)
			}
			s.Venue = mk()
		case rf.VenueSpec != nil:
			v, err := decodeVenue(*rf.VenueSpec)
			if err != nil {
				return nil, fmt.Errorf("campaign: run %d (%s): venueSpec: %w", i, name, err)
			}
			s.Venue = v
		default:
			return nil, fmt.Errorf("campaign: run %d (%s): venue is required (a built-in name or a venueSpec)", i, name)
		}
		kind, ok := campaign.AttackByName(rf.Attack)
		if !ok {
			return nil, fmt.Errorf("campaign: run %d (%s): unknown attack %q (want karma|mana|prelim|cityhunter|known-beacons)", i, name, rf.Attack)
		}
		s.Attack = kind
		if rf.Minutes <= 0 {
			return nil, fmt.Errorf("campaign: run %d (%s): minutes %v must be positive", i, name, rf.Minutes)
		}
		s.Duration = duration(rf.Minutes, time.Minute)
		if rf.ScanIntervalSeconds != nil {
			if *rf.ScanIntervalSeconds <= 0 {
				return nil, fmt.Errorf("campaign: run %d (%s): scanIntervalSeconds %v must be positive", i, name, *rf.ScanIntervalSeconds)
			}
			d := duration(*rf.ScanIntervalSeconds, time.Second)
			s.ScanInterval = &d
		}
		s.DirectProberFraction = rf.DirectProberFraction
		s.ArrivalScale = rf.ArrivalScale
		s.FrameLoss = rf.FrameLoss
		s.CanaryFraction = rf.CanaryFraction
		s.RandomizeMACFraction = rf.RandomizeMACFraction
		s.PreconnectedFraction = rf.PreconnectedFraction
		s.Deauth = rf.Deauth
		s.Sentinel = rf.Sentinel
		s.CautiousMirror = rf.CautiousMirror
		s.Randomization = rf.Randomization
		s.Linker = rf.Linker
		// Semantic checks (slot, fraction ranges, …) live in Spec.Validate
		// so the plan codec, programmatic campaigns and the job server
		// agree.
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: run %d (%s): %w", i, name, err)
		}
		specs[i] = s
	}
	return specs, nil
}
