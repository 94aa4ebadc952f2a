package scenario

import (
	"context"
	"fmt"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/sim"
	"cityhunter/internal/stats"
)

// KnowledgePlane selects how a deployment's sites share the City-Hunter
// database — the paper runs each venue in isolation; a city-scale hunter
// can do better because phones roam between its sites.
type KnowledgePlane int

// Knowledge planes.
const (
	// Isolated gives every site its own database, seeded independently —
	// N copies of the paper's single-venue deployment.
	Isolated KnowledgePlane = iota
	// PeriodicSync keeps per-site databases but exchanges hit records
	// every SyncEvery: each site absorbs the SSIDs that captured phones
	// elsewhere, without per-client state.
	PeriodicSync
	// Shared runs one core database (and one per-client rotation state)
	// behind all sites: a phone that exhausted site A's top replies gets
	// the NEXT untried batch at site B instead of the same head again.
	Shared
)

// String implements fmt.Stringer.
func (k KnowledgePlane) String() string {
	switch k {
	case Isolated:
		return "isolated"
	case PeriodicSync:
		return "periodic-sync"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("knowledge(%d)", int(k))
	}
}

// MaxSites bounds a deployment; site MACs embed the index in one byte.
const MaxSites = 250

// DeploymentConfig describes a city-scale deployment: several attacker
// sites on one radio medium, phones that roam between them, and a
// knowledge plane joining (or not joining) the sites' databases.
type DeploymentConfig struct {
	// Base carries everything a single-venue Config does except the
	// venue: city, heat map, attack kind, population knobs, seed.
	// Base.Venue is ignored; Sites replaces it.
	Base Config
	// Sites are the attacker deployments (1..MaxSites venues).
	Sites []Venue
	// Knowledge selects how the sites share the City-Hunter database.
	// KARMA/MANA/Known-Beacons attackers have no shareable database and
	// degrade to Isolated behaviour under every plane.
	Knowledge KnowledgePlane
	// SyncEvery is the PeriodicSync exchange period; 0 means one minute.
	SyncEvery time.Duration
	// RoamFraction is the probability that a phone finishing its dwell
	// walks to another site instead of leaving the city.
	RoamFraction float64
	// Transit models the inter-site walk; the zero value selects
	// mobility.DefaultTransit.
	Transit mobility.TransitModel
	// FarField, when non-nil, adds the city-scale level-of-detail
	// population: cheap statistical pedestrians promoted to full clients
	// only inside the promotion boundary around each site. nil keeps the
	// classic venue-scale behaviour byte for byte.
	FarField *FarFieldConfig
	// Partitions selects the execution engine. 0 (the zero value) keeps
	// the classic serialized engine byte for byte. AutoPartitions runs the
	// conservative parallel engine with one partition per site; a positive
	// count runs it with that many partitions (clamped to the site count).
	// Partitioned results are deterministic — identical at any partition
	// count and any GOMAXPROCS — but follow the partitioned semantics
	// (per-site RNG streams and radio shards; see DESIGN §5.13), so they
	// are not comparable byte for byte with Partitions == 0 output.
	Partitions int
}

// AutoPartitions asks the partitioned engine to use one partition per
// deployment site.
const AutoPartitions = -1

// DeploymentResult is everything a deployment run produces.
type DeploymentResult struct {
	// Sites holds one per-site Result, in DeploymentConfig.Sites order.
	// Site results count a roaming phone under the site it first arrived
	// at; its SSIDsSent credit spans every engine that served it.
	Sites []*Result
	// Outcomes pools every phone across sites.
	Outcomes []stats.ClientOutcome
	// Tally aggregates the pooled outcomes (its HitBroadcast is the
	// pooled h_b the knowledge planes are compared on).
	Tally stats.Tally
	// Knowledge echoes the configured plane.
	Knowledge KnowledgePlane
	// Roams counts completed inter-site transits.
	Roams int
	// Duration is the simulated virtual time (shorter than requested
	// only when the run was cancelled).
	Duration time.Duration
	// FarField is the level-of-detail tier's accounting (nil unless the
	// deployment configured one). It is kept out of Outcomes/Tally so the
	// knowledge-plane comparisons those feed stay undisturbed.
	FarField *FarFieldResult
	// Metrics, Journal and Spans are the deployment-wide observability
	// attachments (one runtime serves every site).
	Metrics obs.Snapshot
	Journal *obs.Journal
	Spans   *obs.Trace
}

// deployment is the one deployment driver. It works over per-site handles:
// envs[i] is site i's environment. On the serial engine every entry is the
// same shared runEnv; on the partitioned engine each site owns one — its
// partition's engine, a radio shard, an RNG stream, a MAC space and a
// journal. coord is nil on the serial engine. Only env construction and
// the primitives every, now, run and handoff branch on it; roaming,
// sampling, knowledge sync, the telemetry feed, the far-field tier and
// collection are written once over envs.
type deployment struct {
	coord  *sim.Partitioned // nil on the serial engine
	partOf []int            // site index → partition index (partitioned only)
	envs   []*runEnv
	// rt is the deployment-wide runtime: the shared env's on the serial
	// engine, the coordinator's on the partitioned one.
	rt *obs.Runtime

	sites        []*site
	pops         []*population
	transit      mobility.TransitModel
	roamFraction float64
	// siteRoams counts completed transits by destination site; each entry
	// is touched only by the engine running that site, and the sum is
	// DeploymentResult.Roams.
	siteRoams []int
}

// RunDeployment executes a multi-site deployment for one slot. It is
// RunDeploymentContext with a background context.
func RunDeployment(dcfg DeploymentConfig, slot int, duration time.Duration) (*DeploymentResult, error) {
	return RunDeploymentContext(context.Background(), dcfg, slot, duration)
}

// RunDeploymentContext composes the same layers as RunContext — world
// build, knowledge, site deployment, collection — across N sites, then
// adds the two things only a city has: phones roaming between venues, and
// a knowledge plane joining the hunters' databases. The Partitions field
// selects the serial engine (one env shared by every site) or the
// partitioned one (one env per site); the layers above the env are the
// same on both.
//
// Cancellation follows RunContext: a mid-run cancel returns the partial
// DeploymentResult together with a non-nil error wrapping ctx.Err().
func RunDeploymentContext(ctx context.Context, dcfg DeploymentConfig, slot int, duration time.Duration) (*DeploymentResult, error) {
	cfg := dcfg.Base
	if cfg.City == nil || cfg.HeatMap == nil {
		return nil, fmt.Errorf("scenario: city and heat map are required")
	}
	if len(dcfg.Sites) == 0 {
		return nil, fmt.Errorf("scenario: deployment needs at least one site")
	}
	if len(dcfg.Sites) > MaxSites {
		return nil, fmt.Errorf("scenario: %d sites exceed the %d-site limit", len(dcfg.Sites), MaxSites)
	}
	radioRange := 0.0
	for i, v := range dcfg.Sites {
		if v.Name == "" {
			return nil, fmt.Errorf("scenario: site %d needs a name", i)
		}
		if v.RadioRange <= 0 {
			return nil, fmt.Errorf("scenario: site %q radio range %v must be positive", v.Name, v.RadioRange)
		}
		if slot < 0 || slot >= v.Profile.Slots() {
			return nil, fmt.Errorf("scenario: slot %d outside site %q profile (0..%d)", slot, v.Name, v.Profile.Slots()-1)
		}
		if v.RadioRange > radioRange {
			radioRange = v.RadioRange
		}
	}
	if dcfg.Knowledge < Isolated || dcfg.Knowledge > Shared {
		return nil, fmt.Errorf("scenario: unknown knowledge plane %d", int(dcfg.Knowledge))
	}
	if dcfg.RoamFraction < 0 || dcfg.RoamFraction > 1 {
		return nil, fmt.Errorf("scenario: roam fraction %v outside [0,1]", dcfg.RoamFraction)
	}
	transit := dcfg.Transit
	if transit == (mobility.TransitModel{}) {
		transit = mobility.DefaultTransit()
	}
	if err := transit.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	syncEvery := dcfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = time.Minute
	}
	if duration <= 0 {
		return nil, fmt.Errorf("scenario: non-positive duration %v", duration)
	}
	if dcfg.Partitions < AutoPartitions {
		return nil, fmt.Errorf("scenario: partition count %d invalid: use %d (one per site), 0 (serial), or a positive count",
			dcfg.Partitions, AutoPartitions)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	cfg.Venue = Venue{} // sites replace it; nothing below may consult it
	var ff *FarFieldConfig
	if dcfg.FarField != nil {
		f, err := dcfg.FarField.normalized(dcfg.Sites, radioRange, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ff = &f
	}

	// Environment layer.
	var d *deployment
	if dcfg.Partitions == 0 {
		d, err = newSerialDeployment(cfg, len(dcfg.Sites), radioRange)
	} else {
		d, err = newPartitionedDeployment(dcfg, cfg, ff, transit, duration, radioRange)
	}
	if err != nil {
		return nil, err
	}
	d.transit, d.roamFraction = transit, dcfg.RoamFraction
	d.siteRoams = make([]int, len(dcfg.Sites))

	// Knowledge layer: one strategy set per site, or one for all.
	sets := make([]strategySet, len(dcfg.Sites))
	if dcfg.Knowledge == Shared {
		positions := make([]geo.Point, len(dcfg.Sites))
		for i, v := range dcfg.Sites {
			positions[i] = v.Position
		}
		shared, err := buildStrategy(cfg, positions, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		if shared.chEngine != nil {
			shared.chEngine.Instrument(d.rt)
		}
		for i := range sets {
			sets[i] = shared
		}
	} else {
		for i, v := range dcfg.Sites {
			// Per-site seeds stay distinct (and site 0 keeps the classic
			// cfg.Seed+1) so isolated sites don't sample identical ghosts.
			set, err := buildStrategy(cfg, []geo.Point{v.Position}, cfg.Seed+1+1000*int64(i))
			if err != nil {
				return nil, err
			}
			if set.chEngine != nil {
				// Per-site series: N engines writing one unlabelled gauge
				// would leave only the last writer's value.
				env := d.envs[i]
				set.chEngine.Instrument(env.rt, env.siteLabels(v.Name)...)
			}
			sets[i] = set
		}
	}

	// Site-deployment layer.
	d.sites = make([]*site, len(dcfg.Sites))
	for i, v := range dcfg.Sites {
		d.sites[i], err = deploySite(d.envs[i], v, deploymentSiteIdentity(i), sets[i])
		if err != nil {
			return nil, err
		}
	}
	labels := map[string]string{
		"knowledge": dcfg.Knowledge.String(),
		"sites":     fmt.Sprintf("%d", len(d.sites)),
	}
	if d.coord != nil {
		labels["partitions"] = fmt.Sprintf("%d", d.coord.Parts())
	}
	feed := startFeed(d.rt, cfg, d.every, d.now, "deployment", slot, d.sites, labels)
	scheduleSampling(d.envs, d.sites)
	if dcfg.Knowledge == PeriodicSync {
		d.scheduleKnowledgeSync(syncEvery)
	}

	// Population layer: one population per site, drawing from its env's
	// RNG stream and MAC space, with dwell endings routed through the
	// roaming hook.
	attackers := attackerSet(d.sites)
	slotStart := time.Duration(slot) * time.Hour
	d.pops = make([]*population, len(dcfg.Sites))
	for i, v := range dcfg.Sites {
		env := d.envs[i]
		arrivals, err := mobility.Arrivals(env.rng, scaledProfile(v.Profile, cfg.ArrivalScale), slotStart, duration)
		if err != nil {
			return nil, fmt.Errorf("scenario: site %q: %w", v.Name, err)
		}
		pop := newPopulation(env, v, d.sites[i].id.legitMAC, attackers)
		pop.siteIndex = i
		pop.endDwell = d.endDwell
		d.pops[i] = pop
		pop.spawnArrivals(arrivals, slotStart, v.Groups(slot), duration)
	}

	// Level-of-detail layer: the far-field tier spawns after the venue
	// populations so every classic draw from the env RNG keeps its order,
	// and draws only from its own spawn-derived streams thereafter.
	var tiers *tierManager
	if ff != nil {
		tiers, err = newTierManager(d.envs, *ff, d.sites)
		if err != nil {
			return nil, err
		}
		tiers.spawn(duration)
	}

	runErr := d.run(ctx, duration)

	// Collection layer — single-threaded again on either engine.
	simulated := duration
	if runErr != nil {
		simulated = d.now()
	}
	engines := uniqueEngines(d.sites)
	dres := &DeploymentResult{Knowledge: dcfg.Knowledge, Duration: simulated}
	for _, r := range d.siteRoams {
		dres.Roams += r
	}
	for i, st := range d.sites {
		res := assembleResult(d.envs[i], st, d.pops[i], slot, simulated, engines)
		dres.Sites = append(dres.Sites, res)
		dres.Outcomes = append(dres.Outcomes, res.Outcomes...)
	}
	dres.Tally = stats.NewTally(dres.Outcomes)
	if tiers != nil {
		dres.FarField = tiers.result(simulated, engines)
		if d.rt != nil && d.rt.Metrics != nil {
			ff := dres.FarField
			d.rt.Metrics.Counter("scenario_farfield_pedestrians").Add(int64(ff.Pedestrians))
			d.rt.Metrics.Counter("scenario_farfield_promotions").Add(int64(ff.Promotions))
			d.rt.Metrics.Counter("scenario_farfield_demotions").Add(int64(ff.Demotions))
			d.rt.Metrics.Gauge("scenario_farfield_peak_promoted").Set(float64(ff.PeakPromoted))
		}
	}
	if d.rt != nil {
		if d.coord != nil && cfg.FlightRecorderCap > 0 {
			// Partitioned sites journal into rings of their own; fold them
			// into the coordinator's in timestamp order.
			journals := []*obs.Journal{d.rt.Journal}
			for _, env := range d.envs {
				journals = append(journals, env.rt.Journal)
			}
			d.rt.Journal = mergeJournals(cfg.FlightRecorderCap, journals)
		}
		for i, res := range dres.Sites {
			emitRunTelemetry(d.rt, d.envs[i], d.pops[i], res)
		}
		for _, res := range dres.Sites {
			attachObservability(d.rt, res)
		}
		dres.Metrics = d.rt.Metrics.Snapshot()
		dres.Journal = d.rt.Journal
		dres.Spans = d.rt.Trace
	}
	feed.finish(simulated, runErr)
	if runErr != nil {
		return dres, fmt.Errorf("scenario: deployment stopped after %v of %v: %w",
			simulated, duration, runErr)
	}
	return dres, nil
}

// newSerialDeployment builds the serial engine's environment: one runEnv —
// one engine, one city-wide medium, one RNG stream, one MAC space — that
// every site shares.
func newSerialDeployment(cfg Config, nsites int, radioRange float64) (*deployment, error) {
	env, err := newRunEnv(cfg, radioRange)
	if err != nil {
		return nil, err
	}
	// Deployments label per-site instrumentation so a live monitor can
	// tell co-resident attackers apart; single-venue runs never do, which
	// keeps their metric dumps byte-stable.
	env.labelSites = true
	d := &deployment{envs: make([]*runEnv, nsites), rt: env.rt}
	for i := range d.envs {
		d.envs[i] = env
	}
	return d, nil
}

// every arms fn at now+delay and every period thereafter: an engine event
// on the serial engine, a coordinator barrier event on the partitioned one
// (so it runs while no partition does).
func (d *deployment) every(delay, period time.Duration, fn func()) {
	if d.coord == nil {
		d.envs[0].engine.Every(delay, period, fn)
		return
	}
	d.coord.GlobalEvery(delay, period, fn)
}

// now reads the deployment clock. Partitioned, it is the last barrier —
// exact inside every callbacks, which run at barriers.
func (d *deployment) now() time.Duration {
	if d.coord == nil {
		return d.envs[0].engine.Now()
	}
	return d.coord.Now()
}

// run advances the deployment to until. A partitioned run that delivered
// any cross-partition message late broke the lookahead its determinism
// rests on, and fails.
func (d *deployment) run(ctx context.Context, until time.Duration) error {
	if d.coord == nil {
		_, err := d.envs[0].engine.RunContext(ctx, until)
		return err
	}
	if _, err := d.coord.RunContext(ctx, until); err != nil {
		return err
	}
	if v := d.coord.LookaheadViolations(); v != 0 {
		return fmt.Errorf("partitioned run delivered %d cross-partition messages past their lookahead", v)
	}
	return nil
}

// scheduleKnowledgeSync arms the PeriodicSync exchange: every period, each
// engine absorbs the hit records the others gained since the last sync.
// Absorbed records raise the SSID's weight and hit history at the
// receiving site without fabricating per-client state there. Partitioned,
// the exchange is a barrier event, so it needs no locks and lands in site
// order.
func (d *deployment) scheduleKnowledgeSync(every time.Duration) {
	engines := uniqueEngines(d.sites)
	if len(engines) < 2 {
		return
	}
	consumed := make([]int, len(engines))
	d.every(every, every, func() {
		now := d.now()
		for i, src := range engines {
			hits := src.Hits()
			for _, h := range hits[consumed[i]:] {
				for j, dst := range engines {
					if j != i {
						dst.AbsorbHit(now, h.SSID)
					}
				}
			}
			consumed[i] = len(hits)
		}
	})
}

// endDwell decides what a phone does when its dwell expires: with
// probability RoamFraction it walks to another site — keeping its PNL,
// scan state, MAC, and whatever the knowledge plane remembers about it —
// otherwise it leaves the city. It runs on the engine of the phone's
// current site and draws from that site's RNG stream.
func (d *deployment) endDwell(m *member) {
	if m.c.State() == client.StateDeparted {
		return
	}
	rng := d.envs[m.site].rng
	if len(d.sites) < 2 || rng.Float64() >= d.roamFraction {
		m.c.Depart()
		return
	}
	// Uniform choice among the other sites.
	target := rng.Intn(len(d.sites) - 1)
	if target >= m.site {
		target++
	}
	d.startTransit(m, target)
}

// startTransit draws the phone's entry point at the target site and its
// walk there, then hands it over.
func (d *deployment) startTransit(m *member, target int) {
	rng := d.envs[m.site].rng
	dest := d.sites[target].venue
	entry := mobility.StaticPos(rng, dest.Position, dest.RadioRange*0.9)
	d.handoff(m, target, entry, d.transit.Path(rng, m.c.Pos(), entry))
}

// handoff carries a phone along its transit path to the target site and
// calls arrive there. The serial engine walks it, scanning, in coarse
// steps: for realistic inter-venue distances it spends most of the leg out
// of every station's radio range. On the partitioned engine the walk is
// radio-silent — radio is partition-local, and the RF-gap validation
// leaves nothing to hear mid-walk — so the phone suspends here and resumes
// on the target's partition when the transit message arrives, at least one
// lookahead later by construction, with the same MAC, PNL, stats, sequence
// counter and unmasked twins.
func (d *deployment) handoff(m *member, target int, entry geo.Point, path mobility.Path) {
	src := m.site
	engine := d.envs[src].engine
	if d.coord == nil {
		m.leg++
		m.legStart = engine.Now()
		leg := m.leg
		const step = 10 * time.Second
		var tick func()
		tick = func() {
			if m.c.State() == client.StateDeparted || m.leg != leg {
				return
			}
			off := engine.Now() - m.legStart
			if off >= path.Duration {
				m.c.SetPos(path.To)
				d.arrive(m, target)
				return
			}
			m.c.SetPos(path.At(off))
			engine.Schedule(step, tick)
		}
		engine.Schedule(step, tick)
		return
	}
	snap, err := m.c.Suspend()
	if err != nil {
		return
	}
	m.leg++
	m.legStart = engine.Now()
	d.coord.Post(d.partOf[src], src, m.legStart+path.Duration, d.partOf[target], func() {
		env := d.envs[target]
		c, err := client.Resume(env.engine, env.medium, d.pops[target].rng, snap)
		if err != nil {
			return
		}
		c.SetPos(entry)
		m.c = c
		d.arrive(m, target)
	})
}

// arrive starts a fresh dwell at the destination site, drawn from that
// venue's own dwell and movement models.
func (d *deployment) arrive(m *member, target int) {
	d.siteRoams[target]++
	m.roams++
	m.site = target
	pop := d.pops[target]
	venue := pop.venue
	now := pop.engine.Now()
	moving := pop.rng.Float64() < venue.MovingFraction
	var dwell time.Duration
	if moving {
		dwell = venue.MovingDwell.SampleDwell(pop.rng)
	} else {
		dwell = venue.StaticDwell.SampleDwell(pop.rng)
	}
	m.leg++
	m.legStart = now
	m.departAt = now + dwell
	if moving {
		path := mobility.CorridorPath(pop.rng, venue.Position, venue.RadioRange, dwell)
		m.c.SetPos(path.At(0))
		pop.scheduleMove(m, path)
	} else {
		m.c.SetPos(mobility.StaticPos(pop.rng, venue.Position, venue.RadioRange*0.9))
	}
	pop.engine.At(m.departAt, func() { pop.finishDwell(m) })
}
