// Package cityhunter is a research reproduction of "City-Hunter: Hunting
// Smartphones in Urban Areas" (ICDCS 2017): an evil-twin Wi-Fi attacker
// that lures smartphones which disclose no SSIDs, by answering their
// broadcast probe requests with carefully selected SSID guesses.
//
// Because the original system needs injection-capable Wi-Fi hardware and a
// live crowd, this library ships a faithful discrete-event substitute: an
// 802.11 management-plane simulator, a synthetic city with a
// WiGLE-substitute AP database and a photo-derived crowd heat map, a
// smartphone population model, and the three attack strategies the paper
// compares (KARMA, MANA, City-Hunter). Every table and figure of the
// paper's evaluation can be regenerated; see the experiments command and
// EXPERIMENTS.md.
//
// # Quick start
//
//	world, err := cityhunter.NewWorld()
//	if err != nil { ... }
//	res, err := world.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
//		cityhunter.LunchSlot, 30*time.Minute)
//	if err != nil { ... }
//	fmt.Println(res.Tally) // hit rate h and broadcast hit rate h_b
//
// All randomness derives from the world seed: identical seeds give
// byte-identical results.
package cityhunter

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/citygen"
	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/detect"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/linker"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/obs/monitor"
	"cityhunter/internal/plan"
	"cityhunter/internal/pnl"
	"cityhunter/internal/scenario"
	"cityhunter/internal/serve"
	"cityhunter/internal/stats"
	"cityhunter/internal/trace"
	"cityhunter/internal/wigle"
)

// Re-exported building blocks. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// World-building inputs.
	CityConfig = citygen.Config
	City       = citygen.City
	HeatMap    = heatmap.Map
	PNLConfig  = pnl.Config
	PNLModel   = pnl.Model
	WiGLEDB    = wigle.DB

	// Experiment surface.
	Venue      = scenario.Venue
	AttackKind = scenario.AttackKind
	Result     = scenario.Result
	CoreConfig = core.Config

	// MAC randomization and de-anonymisation: the phone-side rotation
	// policy, the attacker-side linker selector, and the ground-truth
	// re-linking grade a run attaches to its Result.
	RandomizationPolicy = client.RandomizationPolicy
	LinkerKind          = scenario.LinkerKind
	LinkReport          = linker.Report

	// Multi-site deployments: N attacker sites in one city, phones
	// roaming between them, and a knowledge plane joining the hunters'
	// databases (see World.DeploySites).
	DeploymentConfig = scenario.DeploymentConfig
	DeploymentResult = scenario.DeploymentResult
	KnowledgePlane   = scenario.KnowledgePlane
	TransitModel     = mobility.TransitModel

	// City-scale level-of-detail population: a statistical far-field tier
	// promoted to full client fidelity only inside each site's promotion
	// boundary (see WithPopulationScale, WithLODRadius, WithFarField).
	FarFieldConfig = scenario.FarFieldConfig
	FarFieldResult = scenario.FarFieldResult
	FarFieldSite   = scenario.FarFieldSite
	RouteStop      = mobility.RouteStop
	RouteModel     = mobility.RouteModel
	// RunConfig is the raw per-run configuration RunOptions assemble. It
	// is exposed for RunSpec.Configure hooks; most callers never touch it
	// directly.
	RunConfig = scenario.Config

	// Campaigns: declarative multi-run orchestration over a bounded
	// worker pool (see World.RunCampaign).
	RunSpec           = campaign.Spec
	CampaignPool      = campaign.Pool
	CampaignProgress  = campaign.Progress
	CampaignResult    = campaign.Outcome
	CampaignAggregate = campaign.Aggregate

	// Metrics.
	Tally     = stats.Tally
	Breakdown = stats.Breakdown
	Outcome   = stats.ClientOutcome
	Histogram = stats.Histogram

	// Countermeasures and capture.
	Sentinel     = detect.Sentinel
	Finding      = detect.Finding
	TraceMonitor = trace.Monitor
	TraceEntry   = trace.Entry

	// Observability: the metrics snapshot, the flight-recorder journal and
	// the Perfetto span trace a run can attach to its Result.
	MetricsSnapshot = obs.Snapshot
	MetricPoint     = obs.MetricPoint
	FlightRecorder  = obs.Journal
	JournalEvent    = obs.Event
	PerfettoTrace   = obs.Trace

	// Live monitoring: the streaming telemetry sink runs publish into, and
	// the HTTP monitor server that implements it.
	TelemetryPublisher = obs.Publisher
	TelemetryRun       = obs.RunPublisher
	TelemetryRunInfo   = obs.RunInfo
	MonitorServer      = monitor.Server
)

// Attack strategies.
const (
	// KARMA answers directed probes only (Dai Zovi & Macaulay 2005).
	KARMA = scenario.KARMA
	// MANA additionally harvests disclosed SSIDs and replays them
	// (White & de Villiers, DEF CON 22).
	MANA = scenario.MANA
	// CityHunterPreliminary is the paper's §III design: WiGLE seeding
	// plus per-client untried rotation.
	CityHunterPreliminary = scenario.CityHunterPreliminary
	// CityHunter is the full §IV design with adaptive popularity and
	// freshness buffers.
	CityHunter = scenario.CityHunter
	// KnownBeacons is the wifiphisher-style related attack: forged
	// beacons cycling the lure list, no probe responses.
	KnownBeacons = scenario.KnownBeacons
)

// Knowledge planes for multi-site deployments.
const (
	// Isolated gives every site its own database — N independent copies
	// of the paper's single-venue deployment.
	Isolated = scenario.Isolated
	// PeriodicSync exchanges hit records between per-site databases
	// every sync period.
	PeriodicSync = scenario.PeriodicSync
	// Shared runs one database (and one per-client rotation state)
	// behind all sites.
	Shared = scenario.Shared
)

// MAC randomization policies (see WithMACRandomization).
const (
	// RandomizeNone keeps the phone's stable identity MAC.
	RandomizeNone = client.RandomizeNone
	// RandomizePerScan draws a fresh MAC at the start of every scan
	// cycle.
	RandomizePerScan = client.RandomizePerScan
	// RandomizePerBurst draws a fresh MAC for every per-channel probe
	// burst within a scan.
	RandomizePerBurst = client.RandomizePerBurst
	// RandomizeTimed rotates on a timer (see WithRandomizeEvery).
	RandomizeTimed = client.RandomizeTimed
)

// De-anonymisation linkers (see WithLinker).
const (
	// LinkerMAC is the identity mapping: one MAC, one device.
	LinkerMAC = scenario.LinkerMAC
	// LinkerSeq links by 802.11 sequence-counter continuity.
	LinkerSeq = scenario.LinkerSeq
	// LinkerFingerprint links by the probe-request IE fingerprint.
	LinkerFingerprint = scenario.LinkerFingerprint
	// LinkerPNL links by directed-probe PNL order.
	LinkerPNL = scenario.LinkerPNL
	// LinkerComposite combines all three signals.
	LinkerComposite = scenario.LinkerComposite
)

// MaxDeploymentSites bounds a deployment's site count.
const MaxDeploymentSites = scenario.MaxSites

// AutoPartitions asks WithPartitions for one partition per deployment site.
const AutoPartitions = scenario.AutoPartitions

// Common hour slots of the 8am–8pm profiles.
const (
	// MorningRushSlot is 8am–9am.
	MorningRushSlot = 0
	// LunchSlot is 12pm–1pm.
	LunchSlot = 4
	// EveningRushSlot is 6pm–7pm.
	EveningRushSlot = 10
)

// City presets, re-exported.
var (
	// DefaultCityConfig is the Hong Kong-flavoured dense city the paper's
	// numbers calibrate against.
	DefaultCityConfig = citygen.DefaultConfig
	// SparseCityConfig is a low-density suburb variant with a thin
	// public-Wi-Fi ecosystem.
	SparseCityConfig = citygen.SparseConfig
	// CityScaleCityConfig is the dozen-district variant built for
	// level-of-detail runs: a deployment attacking three districts leaves
	// the rest as pure far-field traffic.
	CityScaleCityConfig = citygen.CityScaleConfig
	// DefaultRouteModel is the far-field itinerary model.
	DefaultRouteModel = mobility.DefaultRoute
	// DefaultTransit returns the urban walking-speed transit model.
	DefaultTransit = mobility.DefaultTransit
)

// Plan persistence: the versioned envelope is the one persisted format for
// venues, deployment plans and campaigns. A Plan declares its kind (venue,
// deployment or campaign) and carries exactly that payload; files
// round-trip through SavePlan/LoadPlan with strict unknown-field rejection
// end to end. cmd/cityhunter-sim -plan and the campaign server read it.
type (
	// Plan is the versioned envelope: Version, Kind, and the one payload
	// matching the kind.
	Plan = plan.Plan
	// PlanKind names a plan's payload: KindVenue, KindDeployment or
	// KindCampaign.
	PlanKind = plan.Kind
	// FieldError is a validation failure annotated with the offending
	// field's path — the structure behind the campaign server's 400
	// responses. Its message is the bare reason, so wrapped errors read
	// the same as they always have.
	FieldError = scenario.FieldError
)

// Plan kinds.
const (
	// KindVenue plans carry a single venue.
	KindVenue = plan.KindVenue
	// KindDeployment plans carry a multi-site deployment.
	KindDeployment = plan.KindDeployment
	// KindCampaign plans carry a list of run specs.
	KindCampaign = plan.KindCampaign
)

// Plan envelope I/O, re-exported.
var (
	// SavePlan writes a plan envelope as indented JSON.
	SavePlan = plan.Save
	// LoadPlan reads and validates a plan envelope, rejecting unknown
	// fields everywhere (including inside the payload).
	LoadPlan = plan.Load
	// EncodePlan renders a plan in its canonical compact form — the exact
	// bytes the campaign server hashes for its result store.
	EncodePlan = plan.Encode
	// DecodePlan parses the canonical or indented envelope form.
	DecodePlan = plan.Decode
)

// Venue constructors, re-exported.
var (
	// PassageVenue is the subway passage (everyone moving).
	PassageVenue = scenario.PassageVenue
	// CanteenVenue is the canteen (almost everyone seated).
	CanteenVenue = scenario.CanteenVenue
	// MallVenue is the shopping centre (mixed mobility).
	MallVenue = scenario.MallVenue
	// StationVenue is the railway station (mixed, commuter peaks).
	StationVenue = scenario.StationVenue
	// AllVenues lists the four in Figure 5 order.
	AllVenues = scenario.AllVenues
)

// World is a generated urban environment ready to host experiments: the
// city with its access points, the photo-derived heat map, the phone
// population model, and the attacker's (imperfect) WiGLE snapshot.
type World struct {
	// City is the synthetic environment.
	City *City
	// Heat is the crowd heat map derived from geotagged photos.
	Heat *HeatMap
	// PNL is the phone preferred-network-list model.
	PNL *PNLModel
	// WiGLE is the attacker's offline database: the city's networks with
	// crowd-sourcing coverage gaps.
	WiGLE *WiGLEDB

	seed int64
}

// worldOptions collects the functional options of NewWorld.
type worldOptions struct {
	seed      int64
	cityCfg   *CityConfig
	pnlCfg    *PNLConfig
	missSmall float64
	missMid   float64
	perfectDB bool
	heatCell  float64
}

// WorldOption customises NewWorld.
type WorldOption interface{ applyWorld(*worldOptions) }

type worldOptionFunc func(*worldOptions)

func (f worldOptionFunc) applyWorld(o *worldOptions) { f(o) }

// WithSeed sets the world seed (default 1).
func WithSeed(seed int64) WorldOption {
	return worldOptionFunc(func(o *worldOptions) { o.seed = seed })
}

// WithCityConfig replaces the default synthetic-city configuration.
func WithCityConfig(cfg CityConfig) WorldOption {
	return worldOptionFunc(func(o *worldOptions) { o.cityCfg = &cfg })
}

// WithPNLConfig replaces the calibrated phone-population configuration.
func WithPNLConfig(cfg PNLConfig) WorldOption {
	return worldOptionFunc(func(o *worldOptions) { o.pnlCfg = &cfg })
}

// WithWiGLEGaps sets the crowd-sourcing miss probabilities for small
// (≤3 APs) and mid-size (4–20 APs) networks. Defaults are 0.35 and 0.05.
func WithWiGLEGaps(missSmall, missMid float64) WorldOption {
	return worldOptionFunc(func(o *worldOptions) {
		o.missSmall, o.missMid = missSmall, missMid
	})
}

// WithPerfectWiGLE gives the attacker a gap-free database (an ablation).
func WithPerfectWiGLE() WorldOption {
	return worldOptionFunc(func(o *worldOptions) { o.perfectDB = true })
}

// WithHeatCellSize sets the heat-map grid cell edge in metres (default 200).
func WithHeatCellSize(metres float64) WorldOption {
	return worldOptionFunc(func(o *worldOptions) { o.heatCell = metres })
}

// NewWorld generates a world. With no options it builds the calibrated
// default: an 8 km × 8 km Hong Kong-flavoured city, 200 m heat cells, and
// a WiGLE snapshot missing 35 % of small networks.
func NewWorld(opts ...WorldOption) (*World, error) {
	o := worldOptions{
		seed:      1,
		missSmall: 0.35,
		missMid:   0.05,
		heatCell:  200,
	}
	for _, opt := range opts {
		opt.applyWorld(&o)
	}

	cityCfg := citygen.DefaultConfig(o.seed)
	if o.cityCfg != nil {
		cityCfg = *o.cityCfg
		cityCfg.Seed = o.seed
	}
	city, err := citygen.Generate(cityCfg)
	if err != nil {
		return nil, fmt.Errorf("cityhunter: generate city: %w", err)
	}
	heat, err := heatmap.FromPhotos(city.Bounds, o.heatCell, city.Photos)
	if err != nil {
		return nil, fmt.Errorf("cityhunter: build heat map: %w", err)
	}
	pnlCfg := pnl.DefaultConfig()
	if o.pnlCfg != nil {
		pnlCfg = *o.pnlCfg
	}
	model, err := pnl.NewModel(city.DB, heat, pnlCfg)
	if err != nil {
		return nil, fmt.Errorf("cityhunter: build PNL model: %w", err)
	}
	db := city.DB
	if !o.perfectDB {
		db, err = city.DB.SampleCrowdsourced(rand.New(rand.NewSource(o.seed+999)), o.missSmall, o.missMid)
		if err != nil {
			return nil, fmt.Errorf("cityhunter: sample WiGLE: %w", err)
		}
	}
	return &World{City: city, Heat: heat, PNL: model, WiGLE: db, seed: o.seed}, nil
}

// Seed returns the world seed.
func (w *World) Seed() int64 { return w.seed }

// runOptions collects the functional options of Run.
type runOptions struct {
	cfg scenario.Config
}

// RunOption customises a single experiment run.
type RunOption interface{ applyRun(*runOptions) }

type runOptionFunc func(*runOptions)

func (f runOptionFunc) applyRun(o *runOptions) { f(o) }

// WithRunSeed decorrelates repeated runs (default: the world seed).
func WithRunSeed(seed int64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Seed = seed })
}

// WithDirectProberFraction sets the share of unsafe phones (default 0.15).
func WithDirectProberFraction(f float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.DirectProberFraction = f })
}

// WithScanInterval sets the mean phone scan period (default 60 s).
func WithScanInterval(d time.Duration) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.ScanInterval = d })
}

// WithDeauth arms the §V-B deauthentication extension and marks the given
// fraction of phones as pre-connected to the venue's legitimate AP.
func WithDeauth(preconnectedFraction float64) RunOption {
	return runOptionFunc(func(o *runOptions) {
		o.cfg.EnableDeauth = true
		o.cfg.PreconnectedFraction = preconnectedFraction
	})
}

// WithPreconnected marks a fraction of phones pre-connected without arming
// the deauth extension (the control condition).
func WithPreconnected(fraction float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.PreconnectedFraction = fraction })
}

// WithCoreConfig overrides the City-Hunter engine configuration (for
// ablations: fixed buffers, no rotation, carrier seeding, ...).
func WithCoreConfig(cfg CoreConfig) RunOption {
	return runOptionFunc(func(o *runOptions) { c := cfg; o.cfg.CoreConfig = &c })
}

// WithSampling records engine state every period (Figure 1-style series).
func WithSampling(period time.Duration) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.SampleEvery = period })
}

// WithArrivalScale multiplies the venue's arrival rates (a speed knob).
func WithArrivalScale(scale float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.ArrivalScale = scale })
}

// WithCanaryClients makes the given fraction of phones run the canary-probe
// evil-twin detector: they unmask the attacker with a probe for a
// nonexistent SSID and ignore it afterwards.
func WithCanaryClients(fraction float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.CanaryFraction = fraction })
}

// WithWiGLE overrides the attacker's offline database for one run —
// sensitivity studies resample the crowd-sourcing gaps without rebuilding
// the world.
func WithWiGLE(db *WiGLEDB) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.WiGLE = db })
}

// WithFrameLoss drops each frame delivery independently with probability p
// — interference the ideal disk model otherwise ignores. Failure-injection
// knob; the calibrated default is 0.
func WithFrameLoss(p float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.FrameLoss = p })
}

// WithRandomizedMACs makes the given fraction of phones rotate their probe
// MAC every scan, the privacy default of modern mobile OSes. It defeats
// the attacker's per-client rotation without any cooperation from the
// network side.
func WithRandomizedMACs(fraction float64) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.RandomizeMACFraction = fraction })
}

// WithMACRandomization makes the given fraction of phones rotate their
// source MAC under an explicit policy (per scan, per channel burst, or on
// a timer). Unlike the legacy WithRandomizedMACs shorthand, policy-driven
// phones also emit their chipset IE fingerprint — the stable observable a
// de-anonymisation linker (WithLinker) can exploit.
func WithMACRandomization(fraction float64, policy RandomizationPolicy) RunOption {
	return runOptionFunc(func(o *runOptions) {
		o.cfg.RandomizeMACFraction = fraction
		o.cfg.Randomization = policy
	})
}

// WithRandomizeEvery sets the rotation period for RandomizeTimed phones
// (default 15 min).
func WithRandomizeEvery(d time.Duration) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.RandomizeEvery = d })
}

// WithLinker selects the attacker's MAC de-anonymisation strategy: how
// the hunter database groups observed MACs into device tracks. The
// default LinkerMAC treats every MAC as its own device (the historical
// behaviour); the others re-link rotated MACs by sequence-counter
// continuity, IE fingerprints, PNL order, or their composite.
// Result.Links grades the chosen linker against ground truth.
func WithLinker(kind LinkerKind) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Linker = kind })
}

// WithCautiousMirror makes the attacker answer directed probes only for
// SSIDs already in its database — its counter-move against canary probing,
// at the cost of first-sighting direct hits.
func WithCautiousMirror() RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.CautiousMirror = true })
}

// WithSentinel deploys a passive many-SSIDs-one-BSSID detector at the
// venue; Result.Sentinel exposes what it flagged and when.
func WithSentinel() RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Sentinel = true })
}

// WithTrace records every frame at the venue into Result.Trace (bounded to
// about a million entries).
func WithTrace() RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Trace = true })
}

// WithMetrics instruments every layer of the run — sim engine, medium,
// attacker, City-Hunter engine, runner — with the observability registry.
// Result.Metrics holds the snapshot; identical seeds produce byte-identical
// dumps.
func WithMetrics() RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Metrics = true })
}

// WithFlightRecorder arms the run flight recorder: a ring-bounded journal
// of structured, virtually-timestamped events (buffer adaptations, ghost
// hits, associations, deauth sweeps, frame losses) in Result.Journal.
// capacity <= 0 selects the default of 8192 events; older events are
// overwritten and counted once the ring fills.
func WithFlightRecorder(capacity int) RunOption {
	return runOptionFunc(func(o *runOptions) {
		if capacity <= 0 {
			capacity = obs.DefaultJournalCap
		}
		o.cfg.FlightRecorderCap = capacity
	})
}

// WithPerfettoTrace collects Chrome/Perfetto trace spans — client
// lifecycles, scan cycles, attacker reply batches — into Result.Spans,
// whose WriteJSON output opens directly in chrome://tracing or
// ui.perfetto.dev.
func WithPerfettoTrace() RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.SpanTrace = true })
}

// NewMonitorServer builds an unstarted monitor server. Use it directly as
// a TelemetryPublisher (via WithMonitorServer) for in-process inspection,
// or call its Start method to expose /metrics, /runs, /events and
// /debug/pprof over HTTP.
func NewMonitorServer() *MonitorServer { return monitor.New() }

// WithPublisher streams run telemetry — periodic metric snapshots plus
// lifecycle events — into an external sink. Publishing is read-only: the
// snapshot tick consumes no randomness and leaves results byte-identical.
func WithPublisher(p TelemetryPublisher) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.Publisher = p })
}

// WithPublishEvery sets the virtual-time cadence between published metric
// snapshots (default scenario.DefaultPublishEvery, 5s of simulated time).
func WithPublishEvery(d time.Duration) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.PublishEvery = d })
}

// WithRunLabel names the run on the monitor; defaults to a
// "<venue>/<attack>/slot<N>" summary when empty.
func WithRunLabel(label string) RunOption {
	return runOptionFunc(func(o *runOptions) { o.cfg.RunLabel = label })
}

// WithMonitorServer publishes the run into an existing monitor server.
func WithMonitorServer(s *MonitorServer) RunOption { return WithPublisher(s) }

// sharedMonitors holds one started monitor server per listen address so
// repeated WithMonitor calls — and concurrent runs — share a single
// listener instead of fighting over the port.
var (
	sharedMonitorsMu sync.Mutex
	sharedMonitors   = map[string]*MonitorServer{}
)

// SharedMonitor returns the process-wide monitor server listening on addr,
// starting one on first use. The second return is the bound address, which
// differs from addr when addr asks for an ephemeral port (":0").
func SharedMonitor(addr string) (*MonitorServer, string, error) {
	sharedMonitorsMu.Lock()
	defer sharedMonitorsMu.Unlock()
	if s, ok := sharedMonitors[addr]; ok {
		return s, s.Addr(), nil
	}
	s := monitor.New()
	bound, err := s.Start(addr)
	if err != nil {
		return nil, "", fmt.Errorf("monitor: %w", err)
	}
	sharedMonitors[addr] = s
	return s, bound, nil
}

// WithMonitor starts (once per address, process-wide) an HTTP monitor
// server on addr and publishes the run into it. The server stays up after
// the run finishes so dashboards can keep scraping; it serves Prometheus
// exposition on /metrics, run JSON on /runs, live events on /events (SSE)
// and profiling under /debug/pprof.
func WithMonitor(addr string) (RunOption, error) {
	s, _, err := SharedMonitor(addr)
	if err != nil {
		return nil, err
	}
	return WithMonitorServer(s), nil
}

// baseRunConfig is the shared per-run configuration every entry point —
// Run, RunContext, RunCampaign — starts from: the world handles, the world
// seed, and the paper's calibrated defaults.
func (w *World) baseRunConfig() scenario.Config {
	return scenario.Config{
		City:                 w.City,
		HeatMap:              w.Heat,
		PNL:                  w.PNL,
		WiGLE:                w.WiGLE,
		DirectProberFraction: 0.15,
		Seed:                 w.seed,
	}
}

// ApplyOptions applies RunOptions to a raw run configuration — the bridge
// between the functional-option surface and the declarative
// RunSpec.Configure hooks of campaigns.
func ApplyOptions(cfg *RunConfig, opts ...RunOption) {
	o := runOptions{cfg: *cfg}
	for _, opt := range opts {
		opt.applyRun(&o)
	}
	*cfg = o.cfg
}

// Run deploys the chosen attacker at the venue for one test: the venue's
// slot-th hour (slot 0 is 8am–9am) truncated to the given duration. The
// attacker's database is re-initialised for every run, as in the paper.
// It is RunContext with a background context.
func (w *World) Run(venue Venue, kind AttackKind, slot int, duration time.Duration, opts ...RunOption) (*Result, error) {
	return w.RunContext(context.Background(), venue, kind, slot, duration, opts...)
}

// RunContext is the primary run entry point: Run, plus cancellation. The
// context is polled inside the simulation event loop, so cancelling stops
// a mid-flight run promptly.
//
// Cancellation semantics: when ctx is cancelled mid-run, RunContext
// returns the partial Result — outcomes, tally, victims and observability
// attachments for the virtual time actually simulated, with
// Result.Duration truncated to that time — together with a non-nil error
// for which errors.Is(err, ctx.Err()) holds. Errors detected before the
// simulation starts (bad venue, bad slot, bad fractions) return a nil
// Result.
func (w *World) RunContext(ctx context.Context, venue Venue, kind AttackKind, slot int, duration time.Duration, opts ...RunOption) (*Result, error) {
	cfg := w.baseRunConfig()
	cfg.Venue = venue
	cfg.Attack = kind
	ApplyOptions(&cfg, opts...)
	res, err := scenario.RunContext(ctx, cfg, slot, duration)
	if err != nil {
		return res, fmt.Errorf("cityhunter: %w", err)
	}
	return res, nil
}

// RunCampaign fans the given run specs out over a bounded worker pool and
// aggregates their results deterministically: per-spec seeds derive from
// the spec (or the world seed and spec index when unset), results and the
// mean/CI aggregate land in spec order, and the numbers are byte-identical
// at any worker count. Progress streams through pool.OnProgress as runs
// finish.
//
// Cancelling ctx stops dispatch, halts in-flight runs promptly (their
// partial results are kept alongside their context errors), and returns
// the completed runs together with ctx.Err(). A hard spec failure cancels
// the rest of the campaign the same way and is reported with its spec
// index and name.
func (w *World) RunCampaign(ctx context.Context, specs []RunSpec, pool CampaignPool) (*CampaignResult, error) {
	c := &campaign.Campaign{
		Base:  w.baseRunConfig(),
		Specs: specs,
		Pool:  pool,
	}
	return c.Run(ctx)
}

// deployOptions collects the functional options of DeploySites.
type deployOptions struct {
	dcfg scenario.DeploymentConfig
}

// DeployOption customises a multi-site deployment.
type DeployOption interface{ applyDeploy(*deployOptions) }

type deployOptionFunc func(*deployOptions)

func (f deployOptionFunc) applyDeploy(o *deployOptions) { f(o) }

// WithKnowledgePlane selects how the sites share the City-Hunter database
// (default Isolated — N independent copies of the paper's deployment).
func WithKnowledgePlane(plane KnowledgePlane) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.dcfg.Knowledge = plane })
}

// WithSyncPeriod sets the PeriodicSync exchange period (default 1 minute).
func WithSyncPeriod(d time.Duration) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.dcfg.SyncEvery = d })
}

// WithRoaming makes phones finishing a dwell walk to another site with the
// given probability instead of leaving the city (default 0).
func WithRoaming(fraction float64) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.dcfg.RoamFraction = fraction })
}

// WithTransit overrides the inter-site walking model roaming phones use.
func WithTransit(m TransitModel) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.dcfg.Transit = m })
}

// WithRunOptions applies single-run options to the deployment's base
// configuration — seeds, population fractions, deauth, observability.
func WithRunOptions(opts ...RunOption) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { ApplyOptions(&o.dcfg.Base, opts...) })
}

// WithPartitions selects the conservative parallel execution engine: each
// site partition runs its own event loop on its own goroutine, advancing
// in lookahead-bounded windows with cross-partition events (roaming
// transits, knowledge syncs, level-of-detail handoffs) applied at
// deterministic barriers. Results are identical at any partition count
// and any GOMAXPROCS, but follow the partitioned semantics — per-site RNG
// streams and radio shards — so they are not byte-comparable with the
// default serialized engine (see DESIGN §5.13). Pass AutoPartitions for
// one partition per site, or a positive count (clamped to the site
// count); 0 keeps the classic engine.
func WithPartitions(n int) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.dcfg.Partitions = n })
}

// farField returns the deployment's far-field config, creating it on first
// use so the level-of-detail options compose in any order.
func (o *deployOptions) farField() *FarFieldConfig {
	if o.dcfg.FarField == nil {
		o.dcfg.FarField = &scenario.FarFieldConfig{}
	}
	return o.dcfg.FarField
}

// WithPopulationScale adds a far-field population of n statistical
// pedestrians roaming the whole city. They cost almost nothing until their
// routes cross a site's promotion boundary, where they are promoted to full
// client fidelity (and demoted again on exit) — 100k–1M pedestrians is the
// design envelope. Without further options they route between districts
// derived from the deployed sites; see WithCityRoutes and WithFarField.
func WithPopulationScale(n int) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.farField().Pedestrians = n })
}

// WithLODRadius sets the promotion boundary radius around each site
// (default 1.25× the largest site radio range, so phones exist slightly
// before the attacker can hear them).
func WithLODRadius(metres float64) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.farField().Radius = metres })
}

// WithCityRoutes replaces the far-field routing destinations — typically
// World.City.RouteStops(), which maps every citygen district onto a stop
// weighted by its attractiveness.
func WithCityRoutes(stops []RouteStop) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { o.farField().Stops = stops })
}

// WithFarField replaces the whole far-field configuration for callers that
// need the long tail of knobs (entry area, itinerary model, spawn seed).
func WithFarField(cfg FarFieldConfig) DeployOption {
	return deployOptionFunc(func(o *deployOptions) { c := cfg; o.dcfg.FarField = &c })
}

// DeploySites runs one attacker of the chosen kind at each site for the
// slot's test — the city-scale generalisation of Run. All sites share one
// radio medium and one virtual clock; phones may roam between them (see
// WithRoaming) and the attackers may share knowledge (see
// WithKnowledgePlane). It is DeploySitesContext with a background context.
func (w *World) DeploySites(sites []Venue, kind AttackKind, slot int, duration time.Duration, opts ...DeployOption) (*DeploymentResult, error) {
	return w.DeploySitesContext(context.Background(), sites, kind, slot, duration, opts...)
}

// DeploySitesContext is DeploySites plus cancellation, with RunContext's
// semantics: a mid-run cancel returns the partial DeploymentResult
// together with a non-nil error wrapping ctx.Err().
func (w *World) DeploySitesContext(ctx context.Context, sites []Venue, kind AttackKind, slot int, duration time.Duration, opts ...DeployOption) (*DeploymentResult, error) {
	o := deployOptions{dcfg: scenario.DeploymentConfig{Sites: sites}}
	o.dcfg.Base = w.baseRunConfig()
	o.dcfg.Base.Attack = kind
	for _, opt := range opts {
		opt.applyDeploy(&o)
	}
	res, err := scenario.RunDeploymentContext(ctx, o.dcfg, slot, duration)
	if err != nil {
		return res, fmt.Errorf("cityhunter: %w", err)
	}
	return res, nil
}

// RunDeployment executes a deployment plan — typically the payload of a
// KindDeployment plan loaded with LoadPlan — against this world: the
// plan's Base is replaced by the world's base configuration carrying the
// given attack kind and run options, then the deployment runs with
// DeploySitesContext's semantics.
func (w *World) RunDeployment(ctx context.Context, dcfg DeploymentConfig, kind AttackKind, slot int, duration time.Duration, opts ...RunOption) (*DeploymentResult, error) {
	base := w.baseRunConfig()
	base.Attack = kind
	ApplyOptions(&base, opts...)
	dcfg.Base = base
	res, err := scenario.RunDeploymentContext(ctx, dcfg, slot, duration)
	if err != nil {
		return res, fmt.Errorf("cityhunter: %w", err)
	}
	return res, nil
}

// Campaign server, re-exported: a long-running HTTP/JSON job API that
// accepts plan envelopes, runs them on a shared bounded campaign pool,
// streams progress over SSE, and persists results in a content-addressed
// store so identical resubmission is a cache hit and cancelled campaigns
// resume from their completed specs. See cmd/cityhunter-server.
type (
	// CampaignServer is the job server. Build one with NewCampaignServer
	// (or serve.New for full control over world construction).
	CampaignServer = serve.Server
	// CampaignServerConfig configures a CampaignServer.
	CampaignServerConfig = serve.Config
	// JobStatus is the JSON shape of a job on the API.
	JobStatus = serve.JobStatus
	// JobResult is a job's final durable result document.
	JobResult = serve.Result
)

// NewCampaignServer builds a job server whose runs execute against worlds
// generated on demand: the first job with a given seed pays the world
// generation cost, later jobs with the same seed share it. cfg.BaseConfig
// may be left nil (it is filled with that default); cfg.StoreDir is
// required.
func NewCampaignServer(cfg CampaignServerConfig) (*CampaignServer, error) {
	if cfg.BaseConfig == nil {
		var mu sync.Mutex
		worlds := map[int64]*World{}
		cfg.BaseConfig = func(seed int64) (scenario.Config, error) {
			mu.Lock()
			defer mu.Unlock()
			w, ok := worlds[seed]
			if !ok {
				var err error
				w, err = NewWorld(WithSeed(seed))
				if err != nil {
					return scenario.Config{}, err
				}
				worlds[seed] = w
			}
			return w.baseRunConfig(), nil
		}
	}
	return serve.New(cfg)
}
