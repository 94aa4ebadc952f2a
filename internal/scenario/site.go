package scenario

import (
	"fmt"
	"slices"
	"time"

	"cityhunter/internal/ap"
	"cityhunter/internal/attack"
	"cityhunter/internal/core"
	"cityhunter/internal/detect"
	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/stats"
	"cityhunter/internal/trace"
)

// siteIdentity fixes the station addressing for one deployed site. Keeping
// the addresses a pure function of the site index makes every run — single
// venue or city-scale — reproducible byte for byte.
type siteIdentity struct {
	attackerMAC ieee80211.MAC
	legitMAC    ieee80211.MAC
	sentinelMAC ieee80211.MAC
	monitorMAC  ieee80211.MAC
}

// singleSiteIdentity is the addressing every single-venue run has always
// used; deploymentSiteIdentity(0) equals it so a one-site deployment puts
// the same frames on air as the classic runner.
func singleSiteIdentity() siteIdentity {
	return deploymentSiteIdentity(0)
}

// deploymentSiteIdentity derives site i's station MACs (last byte i+1).
func deploymentSiteIdentity(i int) siteIdentity {
	n := byte(i + 1)
	return siteIdentity{
		attackerMAC: ieee80211.MAC{0x0a, 0xc1, 0x7f, 0x00, 0x00, n},
		legitMAC:    ieee80211.MAC{0x0a, 0x1e, 0x61, 0x70, 0x00, n},
		sentinelMAC: ieee80211.MAC{0x0a, 0xde, 0x7e, 0xc7, 0x00, n},
		monitorMAC:  ieee80211.MAC{0x0a, 0x28, 0xca, 0x72, 0x00, n},
	}
}

// strategySet is the knowledge layer's output for one site: the strategy
// the attacker consults, plus typed handles for sampling and reporting.
// Under a Shared knowledge plane several sites carry the same set.
type strategySet struct {
	strategy attack.Strategy
	chEngine *core.Engine
	mana     *attack.Mana
}

// site is one deployed attacker with its venue-local supporting stations —
// the output of the attacker-wiring layer.
type site struct {
	venue    Venue
	id       siteIdentity
	set      strategySet
	atk      *attack.Attacker
	sentinel *detect.Sentinel
	monitor  *trace.Monitor
}

// buildStrategy constructs the strategy for an attacker deployed at the
// given positions (one per site it serves). coreSeed is the City-Hunter
// engine's RNG seed when the CoreConfig override leaves it unset.
func buildStrategy(cfg Config, positions []geo.Point, coreSeed int64) (strategySet, error) {
	switch cfg.Attack {
	case KARMA, KnownBeacons:
		return strategySet{strategy: attack.NewKarma()}, nil
	case MANA:
		m := attack.NewMana()
		return strategySet{strategy: m, mana: m}, nil
	case CityHunterPreliminary, CityHunter:
		mode := core.ModeFull
		if cfg.Attack == CityHunterPreliminary {
			mode = core.ModePreliminary
		}
		ccfg := core.DefaultConfig(mode)
		if cfg.CoreConfig != nil {
			ccfg = *cfg.CoreConfig
		}
		if ccfg.Seed == 0 {
			ccfg.Seed = coreSeed
		}
		if ccfg.Linker == nil && cfg.Linker != LinkerMAC {
			lk, err := newLinker(cfg.Linker)
			if err != nil {
				return strategySet{}, err
			}
			ccfg.Linker = lk
		}
		seedDB := cfg.WiGLE
		if seedDB == nil {
			seedDB = cfg.City.DB
		}
		sd := &core.SeedData{DB: seedDB, HeatMap: cfg.HeatMap}
		if len(positions) == 1 {
			sd.Position = positions[0]
		} else {
			sd.Positions = positions
		}
		eng, err := core.NewEngine(ccfg, sd)
		if err != nil {
			return strategySet{}, fmt.Errorf("scenario: build engine: %w", err)
		}
		return strategySet{strategy: eng, chEngine: eng}, nil
	default:
		return strategySet{}, fmt.Errorf("scenario: unknown attack kind %d", int(cfg.Attack))
	}
}

// lureList derives the known-beacons SSID list for an attacker at pos: the
// same WiGLE seeding City-Hunter starts from, in weight order.
func lureList(cfg Config, pos geo.Point) ([]string, error) {
	ccfg := core.DefaultConfig(core.ModePreliminary)
	seedDB := cfg.WiGLE
	if seedDB == nil {
		seedDB = cfg.City.DB
	}
	eng, err := core.NewEngine(ccfg, &core.SeedData{
		DB:       seedDB,
		HeatMap:  cfg.HeatMap,
		Position: pos,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: build lure list: %w", err)
	}
	entries := eng.TopEntries(eng.DBSize())
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.SSID
	}
	return out, nil
}

// deploySite wires one attacker site into the environment: the rogue base
// station running the given strategy, and — per the run configuration — a
// legitimate venue AP, a passive sentinel, and a frame monitor.
func deploySite(env *runEnv, venue Venue, id siteIdentity, set strategySet) (*site, error) {
	cfg := env.cfg
	var beacons []string
	respondToDirect := true
	if cfg.Attack == KnownBeacons {
		respondToDirect = false
		var err error
		beacons, err = lureList(cfg, venue.Position)
		if err != nil {
			return nil, err
		}
	}
	maxReplies := 0 // 0 → the protocol default of 40
	if set.chEngine != nil && cfg.CoreConfig != nil {
		// Ablations that shrink or grow the engine's reply budget need
		// the base station to follow suit.
		maxReplies = cfg.CoreConfig.ReplyBudget
	}
	atk, err := attack.New(env.engine, env.medium, set.strategy, attack.Config{
		MAC:                 id.attackerMAC,
		Pos:                 venue.Position,
		Channel:             6,
		Obs:                 env.rt,
		Site:                siteMetricLabel(env, venue.Name),
		MaxBroadcastReplies: maxReplies,
		RespondToDirect:     respondToDirect,
		CautiousMirror:      cfg.CautiousMirror,
		Beacons:             beacons,
		// wifiphisher blasts known beacons as fast as the card allows;
		// 2 ms pacing ≈ 500 beacons/s at ~12% channel utilisation.
		BeaconEvery: 2 * time.Millisecond,
		Deauth:      attack.DeauthConfig{Enabled: cfg.EnableDeauth, Interval: 5 * time.Second},
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := atk.Start(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	st := &site{venue: venue, id: id, set: set, atk: atk}

	if cfg.PreconnectedFraction > 0 {
		legit, err := ap.New(env.engine, env.medium, ap.Config{
			MAC:     id.legitMAC,
			SSID:    "Venue Official WiFi", // outside the PNL universe
			Pos:     venue.Position.Add(geo.Pt(15, 0)),
			Channel: 6,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if err := legit.Start(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	if cfg.Sentinel {
		st.sentinel = detect.NewSentinel(env.engine, id.sentinelMAC,
			venue.Position.Add(geo.Pt(-10, 5)), 0)
		if err := env.medium.AttachPromiscuous(st.sentinel); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if cfg.Trace {
		monitor := trace.NewMonitor(env.engine, id.monitorMAC,
			venue.Position.Add(geo.Pt(10, -5)))
		monitor.MaxEntries = cfg.TraceMaxEntries
		if monitor.MaxEntries == 0 {
			monitor.MaxEntries = 1 << 20
		}
		if env.rt != nil {
			rt := env.rt
			engine := env.engine
			monitor.OnFirstDrop = func() {
				rt.Event(engine.Now(), obs.EventTraceDrop, "trace-monitor",
					fmt.Sprintf("capture reached its %d-entry cap; subsequent frames dropped", monitor.MaxEntries))
			}
			monitor.DropCounter = rt.Metrics.Counter("trace_monitor_dropped_frames",
				env.siteLabels(venue.Name)...)
		}
		if err := env.medium.AttachPromiscuous(monitor); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		st.monitor = monitor
	}
	return st, nil
}

// uniqueEngines returns the distinct City-Hunter engines behind the sites,
// in site order. Under a Shared knowledge plane all sites collapse to one.
func uniqueEngines(sites []*site) []*core.Engine {
	var out []*core.Engine
	for _, st := range sites {
		eng := st.set.chEngine
		if eng == nil {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == eng {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, eng)
		}
	}
	return out
}

// summarize takes each distinct engine's end-of-run summary once, so sites
// that shared an engine share one summary.
func summarize(engines []*core.Engine) map[*core.Engine]*core.Summary {
	out := make(map[*core.Engine]*core.Summary, len(engines))
	for _, eng := range engines {
		out[eng] = eng.Summary()
	}
	return out
}

// attackerSet collects the sites' rogue-AP MACs, the membership test for
// "this phone associated to an attacker".
func attackerSet(sites []*site) map[ieee80211.MAC]bool {
	out := make(map[ieee80211.MAC]bool, len(sites))
	for _, st := range sites {
		out[st.id.attackerMAC] = true
	}
	return out
}

// scheduleSampling arms the periodic engine-state sampler for the
// time-series figures: one tick per distinct env (one for a serial
// deployment, one per site on the partitioned engine, each on the site's
// own partition), sampling the distinct strategy engines of the sites on
// that env. Engines shared across sites are sampled once.
func scheduleSampling(envs []*runEnv, sites []*site) {
	for i, env := range envs {
		if env.cfg.SampleEvery <= 0 || slices.Index(envs, env) != i {
			continue // sampling off, or env already armed
		}
		var onEnv []*site
		var manas []*attack.Mana
		for j, st := range sites {
			if envs[j] == env {
				onEnv = append(onEnv, st)
				if st.set.mana != nil {
					manas = append(manas, st.set.mana)
				}
			}
		}
		engines := uniqueEngines(onEnv)
		if len(engines) == 0 && len(manas) == 0 {
			continue
		}
		env.engine.Every(0, env.cfg.SampleEvery, func() {
			for _, eng := range engines {
				eng.SampleState(env.engine.Now())
			}
			for _, m := range manas {
				m.SampleSize(env.engine.Now())
			}
		})
	}
}

// scaledProfile multiplies a venue profile's arrival rates by scale.
func scaledProfile(profile mobility.Profile, scale float64) mobility.Profile {
	if scale == 1 {
		return profile
	}
	scaled := make([]float64, len(profile.PerMinute))
	for i, r := range profile.PerMinute {
		scaled[i] = r * scale
	}
	return mobility.Profile{StartHour: profile.StartHour, PerMinute: scaled}
}

// assembleResult is the collection layer for one site: it folds the site's
// attacker accounting and its population's outcomes into a Result.
// engines lists every distinct City-Hunter engine that may have replied to
// the population's phones (more than one when clients roam between
// isolated sites); summaries maps each to its end-of-run summary.
func assembleResult(env *runEnv, st *site, pop *population, slot int, simulated time.Duration, engines []*core.Engine, summaries map[*core.Engine]*core.Summary) *Result {
	canaryDetections := 0
	for _, m := range pop.members {
		canaryDetections += m.c.Stats.CanaryDetections
	}
	attackName := st.set.strategy.Name()
	if env.cfg.Attack == KnownBeacons {
		// The beaconing attacker reuses the silent KARMA strategy for
		// its (absent) probe handling; report the kind instead.
		attackName = env.cfg.Attack.String()
	}
	res := &Result{
		Venue:            st.venue.Name,
		Slot:             slot,
		SlotLabel:        st.venue.Profile.SlotLabel(slot),
		Duration:         simulated,
		Attack:           attackName,
		Outcomes:         pop.outcomes(env.engine.Now(), engines),
		Report:           st.atk.Report(),
		Victims:          st.atk.Victims(),
		Engine:           summaries[st.set.chEngine],
		Sentinel:         st.sentinel,
		Trace:            st.monitor,
		CanaryDetections: canaryDetections,
	}
	if st.set.mana != nil {
		res.Mana = st.set.mana.SizeSamples()
	}
	res.Tally = stats.NewTally(res.Outcomes)
	res.Links = linkReport(st.set.chEngine, memberDevices(pop.members))
	return res
}

// emitRunTelemetry records the end-of-run telemetry for one population:
// a lifecycle span per phone and runner-level tallies in the registry.
func emitRunTelemetry(rt *obs.Runtime, env *runEnv, pop *population, res *Result) {
	now := env.engine.Now()
	if rt.Trace != nil {
		for _, m := range pop.members {
			end := m.departAt
			if end > now {
				end = now
			}
			rt.Trace.Span("client", "lifecycle", m.c.TraceTID(), m.arrived, end, map[string]any{
				"mac":    m.c.Addr().String(),
				"direct": m.direct,
			})
		}
	}
	if rt.Metrics != nil {
		rt.Metrics.Counter("scenario_clients").Add(int64(len(pop.members)))
		rt.Metrics.Counter("scenario_victims").Add(int64(len(res.Victims)))
		rt.Metrics.Counter("scenario_canary_detections").Add(int64(res.CanaryDetections))
		dropped := 0
		if res.Trace != nil {
			dropped = res.Trace.Dropped
		}
		rt.Metrics.Counter("scenario_trace_dropped_frames").Add(int64(dropped))
		rt.Metrics.Gauge("scenario_virtual_seconds").Set(now.Seconds())
	}
}

// attachObservability attaches the shared snapshot/journal/trace handles.
func attachObservability(rt *obs.Runtime, res *Result) {
	res.Metrics = rt.Metrics.Snapshot()
	res.Journal = rt.Journal
	res.Spans = rt.Trace
}
