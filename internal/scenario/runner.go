package scenario

import (
	"context"
	"fmt"
	"time"

	"cityhunter/internal/attack"
	"cityhunter/internal/citygen"
	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/detect"
	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/stats"
	"cityhunter/internal/trace"
	"cityhunter/internal/wigle"
)

// AttackKind selects which attacker a run deploys.
type AttackKind int

// Attack kinds.
const (
	// KARMA answers directed probes only.
	KARMA AttackKind = iota + 1
	// MANA harvests and replays directed-probe SSIDs.
	MANA
	// CityHunterPreliminary is the §III design (rotation + WiGLE).
	CityHunterPreliminary
	// CityHunter is the full §IV design.
	CityHunter
	// KnownBeacons is the wifiphisher-style related attack the paper's
	// family belongs to: instead of answering probes, the attacker
	// broadcasts forged beacons cycling through the WiGLE-derived lure
	// list, hoping passively scanning phones recognise one. It tries
	// only the one or two SSIDs whose beacons land inside each phone's
	// scan window — no per-client rotation is possible.
	KnownBeacons
)

// String implements fmt.Stringer.
func (k AttackKind) String() string {
	switch k {
	case KARMA:
		return "KARMA"
	case MANA:
		return "MANA"
	case CityHunterPreliminary:
		return "City-Hunter (preliminary)"
	case CityHunter:
		return "City-Hunter"
	case KnownBeacons:
		return "Known Beacons"
	default:
		return "unknown attack"
	}
}

// Config assembles one experiment.
type Config struct {
	// City is the synthetic environment; HeatMap its photo heat map.
	City    *citygen.City
	HeatMap *heatmap.Map
	// PNL generates phone preferred-network lists; nil builds one with
	// pnl.DefaultConfig.
	PNL *pnl.Model
	// Venue is the deployment site.
	Venue Venue
	// Attack selects the strategy.
	Attack AttackKind
	// CoreConfig overrides the City-Hunter engine configuration; nil
	// uses core.DefaultConfig for the mode implied by Attack.
	CoreConfig *core.Config
	// WiGLE is the attacker's offline database. nil uses City.DB — i.e.
	// perfect coverage. Pass a wigle.DB.SampleCrowdsourced result to
	// model the real service's gaps.
	WiGLE *wigle.DB
	// DirectProberFraction is the share of unsafe phones (paper ≈15 %).
	DirectProberFraction float64
	// ScanInterval is the mean phone scan period.
	ScanInterval time.Duration
	// PreconnectedFraction of phones arrive already associated to the
	// venue's legitimate AP and stay silent until deauthenticated.
	PreconnectedFraction float64
	// EnableDeauth arms the §V-B deauthentication extension.
	EnableDeauth bool
	// CautiousMirror makes the attacker mirror only already-known SSIDs,
	// its counter-move against canary probing.
	CautiousMirror bool
	// CanaryFraction is the share of phones running the canary-probe
	// evil-twin detector (see internal/detect); they unmask and ignore
	// the attacker.
	CanaryFraction float64
	// RandomizeMACFraction is the share of phones rotating their probe
	// MAC every scan (the modern OS default while unassociated).
	RandomizeMACFraction float64
	// Randomization upgrades the randomizing share from the legacy
	// per-scan flag to an explicit rotation policy; those phones also
	// emit their chipset IE fingerprint, the observable the linker
	// exploits. client.RandomizeNone (the zero value) keeps the
	// historical per-scan behaviour byte-identically.
	Randomization client.RandomizationPolicy
	// RandomizeEvery is the rotation period under
	// client.RandomizeTimed; 0 selects client.DefaultRandomizeEvery.
	RandomizeEvery time.Duration
	// FingerprintModels is how many distinct chipset fingerprints the
	// population draws from; 0 selects the default (24). Smaller values
	// mean more fingerprint collisions between phones.
	FingerprintModels int
	// Linker selects the attacker's MAC de-anonymisation strategy; the
	// zero value (LinkerMAC) is the historical one-MAC-one-device
	// mapping. Ignored when CoreConfig supplies its own Linker.
	Linker LinkerKind
	// Sentinel attaches a passive many-SSIDs-one-BSSID detector at the
	// venue; Result.Sentinel exposes its findings.
	Sentinel bool
	// Trace attaches a promiscuous frame recorder at the venue;
	// Result.Trace exposes the capture. Long runs capture millions of
	// frames — the recorder is bounded to TraceMaxEntries.
	Trace bool
	// TraceMaxEntries caps the frame capture; 0 means the 2^20 default.
	TraceMaxEntries int
	// FrameLoss drops each frame delivery independently with this
	// probability — fading, collisions and interference the disk model
	// otherwise ignores. 0 (the default) is the calibrated setting.
	FrameLoss float64
	// Metrics instruments every layer (sim engine, medium, attacker,
	// City-Hunter engine, runner) with the observability registry;
	// Result.Metrics holds its deterministic snapshot.
	Metrics bool
	// FlightRecorderCap, when positive, arms the run flight recorder: a
	// ring-bounded journal of structured events (adaptations, ghost hits,
	// associations, deauth sweeps, frame losses) kept in Result.Journal.
	FlightRecorderCap int
	// SpanTrace collects Chrome/Perfetto trace spans — client lifecycles,
	// scan cycles, attacker reply batches — into Result.Spans.
	SpanTrace bool
	// ArrivalScale multiplies the venue's arrival rates (a speed knob
	// for tests; 0 means 1).
	ArrivalScale float64
	// SampleEvery sets the engine state-sampling period (0 disables).
	SampleEvery time.Duration
	// Publisher, when set, streams live telemetry into a monitor: periodic
	// metric snapshots on the virtual clock plus structured run events. It
	// forces the metrics registry on. Publishing is read-only and consumes
	// no run randomness, so seeded results are unchanged.
	Publisher obs.Publisher
	// PublishEvery is the virtual-time cadence between published
	// snapshots; 0 selects DefaultPublishEvery.
	PublishEvery time.Duration
	// RunLabel names the run on the monitor; empty derives
	// "venue/attack/slotN".
	RunLabel string
	// RunLabels adds extra identity labels to every metric the run
	// publishes (the job server scopes runs to a job id this way). The
	// built-in attack/seed labels win on conflict.
	RunLabels map[string]string
	// Seed drives all randomness in the run.
	Seed int64
}

// Result is everything a run produces.
type Result struct {
	// Venue and Slot identify the experiment; SlotLabel is "8am-9am"
	// style.
	Venue     string
	Slot      int
	SlotLabel string
	Duration  time.Duration
	// Attack names the strategy.
	Attack string
	// Outcomes holds one record per phone that entered the area.
	Outcomes []stats.ClientOutcome
	// Tally aggregates them the way the paper's tables do.
	Tally stats.Tally
	// Report is the attacker's own accounting (heard probes etc.).
	Report attack.Report
	// Victims lists captures in order.
	Victims []attack.Victim
	// Engine is the City-Hunter engine's end-of-run summary (hits, buffer
	// samples, top entries, database sizes) for breakdowns; nil for
	// KARMA/MANA runs. Sites that shared one engine share one summary.
	Engine *core.Summary
	// Mana is the MANA database's size series for Fig. 1; nil otherwise.
	Mana []attack.SizeSample
	// Sentinel is the passive detector, when Config.Sentinel was set.
	Sentinel *detect.Sentinel
	// Trace is the frame capture, when Config.Trace was set. A nonzero
	// Trace.Dropped means the capture is truncated, not complete.
	Trace *trace.Monitor
	// CanaryDetections sums the clients' canary unmaskings.
	CanaryDetections int
	// Metrics is the deterministic metrics snapshot, when Config.Metrics
	// was set.
	Metrics obs.Snapshot
	// Journal is the run flight recorder, when Config.FlightRecorderCap
	// was positive.
	Journal *obs.Journal
	// Spans is the Perfetto span trace, when Config.SpanTrace was set.
	Spans *obs.Trace
	// Links grades the engine's linker against the population's
	// ground-truth device identities: how precisely the attacker
	// re-linked rotated MACs back to devices. Nil for KARMA/MANA runs
	// (no engine, no track database).
	Links *linker.Report
}

// Breakdown returns the Fig. 6 classification of the SSIDs that hit
// broadcast-probing clients. It is only meaningful for City-Hunter runs.
func (r *Result) Breakdown() stats.Breakdown {
	if r.Engine == nil {
		return stats.Breakdown{}
	}
	direct := make(map[ieee80211.MAC]bool, len(r.Victims))
	for _, v := range r.Victims {
		direct[v.MAC] = v.DirectProber
	}
	return stats.NewBreakdown(r.Engine.Hits, func(h core.HitRecord) bool {
		return direct[h.MAC]
	})
}

// attackerMAC is the attacker's fixed BSSID in every single-venue scenario
// (deployment site 0 reuses it; see deploymentSiteIdentity).
var attackerMAC = ieee80211.MAC{0x0a, 0xc1, 0x7f, 0x00, 0x00, 0x01}

// legitAPMAC is the venue AP used for pre-connected phones.
var legitAPMAC = ieee80211.MAC{0x0a, 0x1e, 0x61, 0x70, 0x00, 0x01}

// Run executes one deployment: the venue's slot-th hour-long test (the
// paper runs 8am–8pm, one test per hour slot, database re-initialised each
// time). duration may be shorter than an hour for quick runs. It is
// RunContext with a background context.
func Run(cfg Config, slot int, duration time.Duration) (*Result, error) {
	return RunContext(context.Background(), cfg, slot, duration)
}

// RunContext is the primary run entry point: Run, plus cancellation. The
// context is polled inside the simulation event loop, so a cancel stops a
// mid-flight run promptly (within a few hundred events).
//
// Cancellation semantics: when ctx is cancelled mid-run, RunContext still
// returns a non-nil *Result holding partial accounting — every outcome,
// tally, victim, report and observability attachment reflects the virtual
// time reached when the run stopped (Result.Duration is that partial
// virtual time, not the requested one) — together with a non-nil error
// wrapping ctx.Err(). Configuration errors detected before the simulation
// starts (an invalid venue, slot, duration or fraction) return a nil
// Result as Run does.
//
// Internally the run composes the same four layers a multi-site
// Deployment uses: world build (newRunEnv), knowledge (buildStrategy),
// site deployment (deploySite), and collection (assembleResult) — with
// exactly one site and no roaming.
func RunContext(ctx context.Context, cfg Config, slot int, duration time.Duration) (*Result, error) {
	if cfg.City == nil || cfg.HeatMap == nil {
		return nil, fmt.Errorf("scenario: city and heat map are required")
	}
	if err := cfg.Venue.Validate(); err != nil {
		return nil, err
	}
	if slot < 0 || slot >= cfg.Venue.Profile.Slots() {
		return nil, fmt.Errorf("scenario: slot %d outside profile (0..%d)", slot, cfg.Venue.Profile.Slots()-1)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("scenario: non-positive duration %v", duration)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}

	env, err := newRunEnv(cfg, cfg.Venue.RadioRange)
	if err != nil {
		return nil, err
	}

	set, err := buildStrategy(cfg, []geo.Point{cfg.Venue.Position}, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	if set.chEngine != nil {
		set.chEngine.Instrument(env.rt)
	}
	st, err := deploySite(env, cfg.Venue, singleSiteIdentity(), set)
	if err != nil {
		return nil, err
	}
	sites := []*site{st}

	// Live telemetry feed (no-op without a publisher) and periodic engine
	// sampling for the time-series figures.
	feed := startFeed(env.rt, cfg, env.engine.Every, env.engine.Now, "run", slot, sites, nil)
	scheduleSampling([]*runEnv{env}, sites)

	// Arrivals for this slot only; offsets are measured from slot start.
	slotStart := time.Duration(slot) * time.Hour
	arrivals, err := mobility.Arrivals(env.rng, scaledProfile(cfg.Venue.Profile, cfg.ArrivalScale), slotStart, duration)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	pop := newPopulation(env, cfg.Venue, st.id.legitMAC, attackerSet(sites))
	pop.spawnArrivals(arrivals, slotStart, cfg.Venue.Groups(slot), duration)

	_, runErr := env.engine.RunContext(ctx, duration)

	simulated := duration
	if runErr != nil {
		// Cancelled mid-run: the engine clock rests at the last executed
		// event, which is how much virtual time the partial result covers.
		simulated = env.engine.Now()
	}
	engines := uniqueEngines(sites)
	res := assembleResult(env, st, pop, slot, simulated, engines, summarize(engines))
	if env.rt != nil {
		emitRunTelemetry(env.rt, env, pop, res)
		attachObservability(env.rt, res)
	}
	feed.finish(simulated, runErr)
	if runErr != nil {
		return res, fmt.Errorf("scenario: run cancelled after %v of %v: %w",
			simulated, duration, runErr)
	}
	return res, nil
}
