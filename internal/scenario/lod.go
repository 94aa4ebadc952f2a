package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/stats"
)

// FarFieldConfig enables the city-scale level-of-detail population: a
// statistical far-field tier whose pedestrians carry only arrival, route
// and RNG-stream state — no per-frame simulation, no medium registration —
// until their itinerary crosses a promotion boundary around an attacker
// site, where they become full client state machines and demote again on
// exit. A nil FarFieldConfig on the deployment keeps the classic
// venue-scale behaviour bit for bit.
type FarFieldConfig struct {
	// Pedestrians is the far-field population size (100k–1M is the design
	// envelope; the per-pedestrian cost away from every site is a route
	// sample and a handful of analytic intersections).
	Pedestrians int
	// Radius is the promotion boundary around each site; a pedestrian
	// whose route enters it becomes a full client. 0 selects 1.25× the
	// largest site radio range, so phones exist slightly before the
	// attacker can hear them.
	Radius float64
	// Stops are the city destinations pedestrians route between, weighted
	// by attractiveness (citygen venues map onto these 1:1). Empty derives
	// one district per site: centre at the site, extent 4× its radio
	// range — the district being much larger than Radius is what keeps
	// most of its visitors in the cheap tier.
	Stops []mobility.RouteStop
	// Route is the itinerary model; the zero value selects
	// mobility.DefaultRoute.
	Route mobility.RouteModel
	// Entry is the area pedestrians enter the city from (homes, transit
	// edges). A zero rect covers the stops' bounding box padded by 1 km.
	Entry geo.Rect
	// Seed feeds the dedicated spawn stream that derives every
	// pedestrian's RNG seed. 0 selects Base.Seed+9. Keeping this
	// stream separate from the run RNG is what leaves venue-scale goldens
	// byte-identical when far field is enabled alongside them.
	Seed int64
}

// normalized validates the config and fills the defaults described on the
// fields.
func (f FarFieldConfig) normalized(sites []Venue, maxRange float64, baseSeed int64) (FarFieldConfig, error) {
	if f.Pedestrians < 0 {
		return f, fmt.Errorf("scenario: negative far-field population %d", f.Pedestrians)
	}
	if f.Radius < 0 {
		return f, fmt.Errorf("scenario: negative promotion radius %v", f.Radius)
	}
	if f.Radius == 0 {
		f.Radius = 1.25 * maxRange
	}
	if len(f.Stops) == 0 {
		for _, v := range sites {
			r := 4 * v.RadioRange
			if r < 250 {
				r = 250
			}
			f.Stops = append(f.Stops, mobility.RouteStop{Pos: v.Position, Radius: r, Weight: 1})
		}
	}
	for i, s := range f.Stops {
		if s.Radius < 0 {
			return f, fmt.Errorf("scenario: far-field stop %d has negative radius %v", i, s.Radius)
		}
	}
	if f.Route == (mobility.RouteModel{}) {
		f.Route = mobility.DefaultRoute()
	}
	if err := f.Route.Validate(); err != nil {
		return f, fmt.Errorf("scenario: %w", err)
	}
	if f.Entry.Width() <= 0 || f.Entry.Height() <= 0 {
		min, max := f.Stops[0].Pos, f.Stops[0].Pos
		for _, s := range f.Stops {
			if s.Pos.X < min.X {
				min.X = s.Pos.X
			}
			if s.Pos.Y < min.Y {
				min.Y = s.Pos.Y
			}
			if s.Pos.X > max.X {
				max.X = s.Pos.X
			}
			if s.Pos.Y > max.Y {
				max.Y = s.Pos.Y
			}
		}
		f.Entry = geo.NewRect(min.Add(geo.Pt(-1000, -1000)), max.Add(geo.Pt(1000, 1000)))
	}
	if f.Seed == 0 {
		f.Seed = baseSeed + 9
	}
	return f, nil
}

// FarFieldSite is the per-site accounting of the far-field tier.
type FarFieldSite struct {
	// Name echoes the site's venue name.
	Name string
	// Promotions counts promotion events whose boundary belonged to this
	// site (a window merged across overlapping boundaries credits the
	// site that opened it).
	Promotions int
	// Hits counts ever-promoted pedestrians whose phone associated to
	// this site's rogue AP.
	Hits int
}

// FarFieldResult is everything the far-field tier produced in one run. It
// is reported separately from the venue populations' Outcomes/Tally so the
// knowledge-plane comparisons those feed stay undisturbed.
type FarFieldResult struct {
	// Pedestrians is the far-field population size.
	Pedestrians int
	// Promoted counts distinct pedestrians that were ever promoted.
	Promoted int
	// Promotions and Demotions count tier transitions (a pedestrian
	// crossing three boundaries counts three times).
	Promotions int
	Demotions  int
	// PeakPromoted is the largest number of simultaneously promoted
	// clients — the actual full-fidelity load the run carried.
	PeakPromoted int
	// Outcomes holds one entry per ever-promoted pedestrian (far-field
	// pedestrians that never met a boundary have, by construction, nothing
	// to report).
	Outcomes []stats.ClientOutcome
	// Tally aggregates Outcomes.
	Tally stats.Tally
	// Sites is the per-site accounting, in deployment site order.
	Sites []FarFieldSite
}

// promoWindow is one scheduled stay inside a promotion boundary, in
// absolute virtual time. site is the boundary's owner, for accounting.
type promoWindow struct {
	start, end time.Duration
	site       int
}

// pedestrian is one far-field inhabitant whose itinerary crosses at least
// one promotion boundary; spawn keeps no others. Until promoted it is pure
// data: an itinerary, a private RNG stream seeded at spawn, and the
// promotion windows scheduled on the site engines. The stream makes every
// draw the pedestrian will ever cause — PNL, behaviour flags, scan jitter —
// independent of when (and whether) other pedestrians promote.
type pedestrian struct {
	mac   ieee80211.MAC
	rng   *rand.Rand
	route mobility.Route

	cur  *client.Client   // live client while promoted
	snap *client.Snapshot // durable state between promotions

	direct     bool
	firstPromo time.Duration
	lastDemote time.Duration
}

// farFieldMAC derives pedestrian ID MACs from a locally administered space
// disjoint from the venue populations' allocator (second byte 0x10 vs
// 0x00), so city-wide uniqueness survives mixing both tiers.
func farFieldMAC(id int) ieee80211.MAC {
	n := uint32(id + 1)
	return ieee80211.MAC{0x02, 0x10, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// tierManager owns the far-field tier: it spawns the statistical
// population, turns routes into promotion windows against the site
// positions, and performs the promote/demote transitions during the run.
// Each window's promote and demote run on the engine of the site that
// owns its boundary — every site's is the same engine on the serial
// engine — so the tier accounting is kept per site, touched only by the
// engine running that site, and folded after the run.
//
// On the partitioned engine a pedestrian's consecutive windows at
// different sites hand its snapshot and RNG stream across partitions
// without locks: promotion boundaries are validated disjoint, so between a
// demote at one site and the next promote at another the pedestrian walks
// at least the boundary gap — at least one lookahead of virtual time,
// hence at least one coordinator barrier, whose join publishes the
// demote's writes.
type tierManager struct {
	envs  []*runEnv
	cfg   FarFieldConfig
	sites []*site

	sitePos []geo.Point

	// peds holds the pedestrians with promotion windows, in ID order.
	peds []*pedestrian

	perSite []tierSite

	// mDemotions is shared by every site (counters are atomic); the other
	// live handles are per site. All are nil-safe no-ops when
	// observability is off.
	mDemotions *obs.Counter
}

// tierSite is one site's tier accounting plus its live metric handles.
// promotedNow and peakPromoted are per site because a global count would
// need cross-partition writes; the global peak is rebuilt after the run
// from the per-site delta logs.
type tierSite struct {
	stats        FarFieldSite
	promotedNow  int
	peakPromoted int
	demotions    int
	// deltas logs every tier transition at this site as (time, ±1); the
	// post-run merge across sites — ordered by time, site index breaking
	// ties — yields a global occupancy walk independent of the engine and
	// the partition count.
	deltas []tierDelta

	mPromotions *obs.Counter
	gPromoted   *obs.Gauge
	gPeak       *obs.Gauge
}

type tierDelta struct {
	at    time.Duration
	delta int
}

func newTierManager(envs []*runEnv, cfg FarFieldConfig, sites []*site) *tierManager {
	tm := &tierManager{envs: envs, cfg: cfg, sites: sites, perSite: make([]tierSite, len(sites))}
	for i, st := range sites {
		tm.sitePos = append(tm.sitePos, st.venue.Position)
		s := &tm.perSite[i]
		s.stats = FarFieldSite{Name: st.venue.Name}
		if env := envs[i]; env.rt != nil {
			labels := env.siteLabels(st.venue.Name)
			s.mPromotions = env.rt.Metrics.Counter("lod_promotions", labels...)
			s.gPromoted = env.rt.Metrics.Gauge("lod_promoted_now", labels...)
			s.gPeak = env.rt.Metrics.Gauge("lod_promoted_peak", labels...)
			tm.mDemotions = env.rt.Metrics.Counter("lod_demotions")
		}
	}
	return tm
}

// spawn creates the far-field population for one run of the given horizon
// (engine time runs 0..horizon regardless of slot; the slot only selects
// profiles). All scheduling happens here, before the run, in pedestrian-ID
// order, each window on its owning site's engine: arrivals, itineraries and
// promotion windows are fully determined by the spawn seed alone. The env
// RNG streams are never touched.
//
// Each pedestrian's spawn values come from a stream seeded with its own
// seed. Most pedestrians never cross a promotion boundary and never draw
// again, so one stream is re-seeded for each of them and they are not kept.
// A pedestrian with promotion windows takes the stream as its private one,
// already advanced past its spawn draws, and a fresh stream serves the next.
func (tm *tierManager) spawn(horizon time.Duration) {
	spawn := rand.New(rand.NewSource(tm.cfg.Seed))
	var rng *rand.Rand
	for id := 0; id < tm.cfg.Pedestrians; id++ {
		seed := spawn.Int63()
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		direct := rng.Float64() < tm.envs[0].cfg.DirectProberFraction
		arrival := time.Duration(rng.Int63n(int64(horizon)))
		entry := geo.Pt(
			tm.cfg.Entry.Min.X+rng.Float64()*tm.cfg.Entry.Width(),
			tm.cfg.Entry.Min.Y+rng.Float64()*tm.cfg.Entry.Height(),
		)
		route := tm.cfg.Route.Sample(rng, arrival, entry, tm.cfg.Stops)
		ws := tm.windows(route)
		if len(ws) == 0 {
			continue
		}
		p := &pedestrian{mac: farFieldMAC(id), rng: rng, route: route, direct: direct}
		rng = nil
		tm.peds = append(tm.peds, p)
		for _, w := range ws {
			w := w
			engine := tm.envs[w.site].engine
			engine.At(w.start, func() { tm.promote(p, w) })
			engine.At(w.end, func() { tm.demote(p, w.site) })
		}
	}
}

// windows computes the pedestrian's stays inside promotion boundaries.
func (tm *tierManager) windows(route mobility.Route) []promoWindow {
	return promoWindows(tm.sitePos, tm.cfg.Radius, route)
}

// promoWindows computes a route's stays inside promotion boundaries,
// merged and in time order: per transit leg an analytic segment–disk
// intersection against every site, per dwell leg a point-in-disk test
// against the sites in id order (the first containing site owns the
// window). A deployment has a handful of sites, so testing each directly
// is cheaper than any spatial index over kilometre-long legs.
func promoWindows(sitePos []geo.Point, r float64, route mobility.Route) []promoWindow {
	var raw []promoWindow
	for _, leg := range route.Legs {
		switch leg.Kind {
		case mobility.LegTransit:
			for si, pos := range sitePos {
				t0, t1, ok := geo.SegmentDiskCrossings(leg.From, leg.To, pos, r)
				if !ok {
					continue
				}
				span := leg.End - leg.Start
				raw = append(raw, promoWindow{
					start: leg.Start + time.Duration(t0*float64(span)),
					end:   leg.Start + time.Duration(t1*float64(span)),
					site:  si,
				})
			}
		case mobility.LegDwell:
			for si, pos := range sitePos {
				if leg.To.Dist(pos) <= r {
					raw = append(raw, promoWindow{start: leg.Start, end: leg.End, site: si})
					break
				}
			}
		}
	}
	if len(raw) == 0 {
		return nil
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].start < raw[j].start })
	merged := raw[:1]
	for _, w := range raw[1:] {
		last := &merged[len(merged)-1]
		if w.start <= last.end {
			if w.end > last.end {
				last.end = w.end
			}
			continue
		}
		merged = append(merged, w)
	}
	// Zero-length windows (tangent grazes, adjacent-leg seams) promote and
	// demote at the same instant; drop them.
	out := merged[:0]
	for _, w := range merged {
		if w.end > w.start {
			out = append(out, w)
		}
	}
	return out
}

// promote raises a pedestrian to full client fidelity, on the engine of
// the site owning the window's boundary. The first promotion materialises
// the phone — PNL, behaviour flags and scan jitter all drawn from the
// pedestrian's private stream — and later ones resume the suspended
// snapshot, so a phone keeps its MAC, stats, sequence counter and
// unmasked-twin memory across boundaries.
func (tm *tierManager) promote(p *pedestrian, w promoWindow) {
	if p.cur != nil {
		return
	}
	env := tm.envs[w.site]
	now := env.engine.Now()
	pos := p.route.At(now)
	var c *client.Client
	var err error
	if p.snap == nil {
		cfg := env.cfg
		// The PNL is drawn at the owning site's venue position — the same
		// canonical positions the venue populations use — not the exact
		// boundary-crossing point. pnl.Model caches venue-local pools on a
		// coarse grid keyed by quantised position but computed from the
		// query point, so querying at arbitrary city coordinates would
		// poison cells that classic runs on the same shared World read
		// later, perturbing their results.
		list := env.model.NewList(p.rng, tm.sites[w.site].venue.Position)
		if p.direct {
			list = env.model.AugmentUnsafe(p.rng, list)
		}
		ccfg := client.Config{
			MAC:           p.mac,
			PNL:           list,
			DirectProber:  p.direct,
			ScanInterval:  time.Duration(float64(cfg.ScanInterval) * (0.7 + 0.6*p.rng.Float64())),
			CanaryProbing: cfg.CanaryFraction > 0 && p.rng.Float64() < cfg.CanaryFraction,
			Obs:           env.rt,
		}
		cfg.applyRandomization(&ccfg, p.rng)
		c, err = client.New(env.engine, env.medium, p.rng, ccfg)
		if err == nil {
			c.SetPos(pos)
			err = c.Start()
		}
		if err == nil {
			p.firstPromo = now
		}
	} else {
		c, err = client.Resume(env.engine, env.medium, p.rng, *p.snap)
		if err == nil {
			c.SetPos(pos)
		}
	}
	if err != nil {
		// Only reachable through programming errors; drop the promotion
		// rather than corrupt the run.
		return
	}
	p.cur = c
	p.snap = nil
	s := &tm.perSite[w.site]
	s.stats.Promotions++
	s.promotedNow++
	if s.promotedNow > s.peakPromoted {
		s.peakPromoted = s.promotedNow
	}
	s.deltas = append(s.deltas, tierDelta{at: now, delta: 1})
	if env.rt != nil {
		s.mPromotions.Inc()
		s.gPromoted.Set(float64(s.promotedNow))
		s.gPeak.SetMax(float64(s.peakPromoted))
		env.rt.Event(now, obs.EventPromotion, p.mac.String(),
			"promoted near "+tm.sites[w.site].venue.Name)
	}
	tm.driveMovement(p, env)
}

// demote suspends a promoted client back to the statistical tier, on the
// engine of the site whose boundary is being exited.
func (tm *tierManager) demote(p *pedestrian, siteIdx int) {
	if p.cur == nil {
		return
	}
	env := tm.envs[siteIdx]
	snap, err := p.cur.Suspend()
	p.cur = nil
	if err == nil {
		p.snap = &snap
	}
	p.lastDemote = env.engine.Now()
	s := &tm.perSite[siteIdx]
	s.demotions++
	s.promotedNow--
	s.deltas = append(s.deltas, tierDelta{at: p.lastDemote, delta: -1})
	if env.rt != nil {
		tm.mDemotions.Inc()
		s.gPromoted.Set(float64(s.promotedNow))
		env.rt.Event(p.lastDemote, obs.EventDemotion, p.mac.String(),
			"suspended to far-field tier")
	}
}

// driveMovement walks a promoted client along its route, 2 s steps like
// the venue walkers, on the promoting site's engine. The ticker captures
// the client and consults only its state: a demoted client is Departed
// forever, so a stale ticker dies without reading pedestrian fields that a
// later promotion — on another partition, possibly — may be rewriting
// (every promotion materialises a fresh client, so a live captured client
// always means the ticker is current).
func (tm *tierManager) driveMovement(p *pedestrian, env *runEnv) {
	const step = 2 * time.Second
	c := p.cur
	var tick func()
	tick = func() {
		if c.State() == client.StateDeparted {
			return
		}
		c.SetPos(p.route.At(env.engine.Now()))
		env.engine.Schedule(step, tick)
	}
	env.engine.Schedule(step, tick)
}

// result assembles the far-field accounting after the run, folding the
// per-site accounting. The global peak is the maximum of the occupancy walk
// over all deltas merged by (time, site) — an ordering the run itself never
// depends on, so the value is the same on either engine and at any
// partition count. Clients still promoted at the horizon are read live;
// everyone else from their last snapshot.
func (tm *tierManager) result(now time.Duration, engines []*core.Engine) *FarFieldResult {
	res := &FarFieldResult{Pedestrians: tm.cfg.Pedestrians}
	var deltas []tierDelta
	for i := range tm.perSite {
		s := &tm.perSite[i]
		res.Promotions += s.stats.Promotions
		res.Demotions += s.demotions
		res.Sites = append(res.Sites, s.stats)
		deltas = append(deltas, s.deltas...)
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	occupancy := 0
	for _, d := range deltas {
		occupancy += d.delta
		if occupancy > res.PeakPromoted {
			res.PeakPromoted = occupancy
		}
	}
	siteByMAC := make(map[ieee80211.MAC]int, len(tm.sites))
	for i, st := range tm.sites {
		siteByMAC[st.id.attackerMAC] = i
	}
	attackers := attackerSet(tm.sites)
	for _, p := range tm.peds {
		var st client.Stats
		var macs []ieee80211.MAC
		switch {
		case p.cur != nil:
			st = p.cur.Stats
			macs = p.cur.UsedMACs()
			p.lastDemote = now
		case p.snap != nil:
			st = p.snap.Stats
			macs = snapshotMACs(p.snap)
		default:
			continue // never promoted before the run ended: nothing to report
		}
		res.Promoted++
		o := stats.ClientOutcome{
			Arrived:      p.firstPromo,
			Departed:     p.lastDemote,
			DirectProber: p.direct,
			Probed:       st.BroadcastProbes+st.DirectProbes > 0,
			Connected:    st.Connected && attackers[st.ConnectedTo],
			ConnectedAt:  st.ConnectedAt,
			MACsUsed:     len(macs),
		}
		for _, eng := range engines {
			o.SSIDsSent += eng.SentCountAcross(macs)
		}
		if o.Connected {
			if si, ok := siteByMAC[st.ConnectedTo]; ok {
				res.Sites[si].Hits++
			}
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	res.Tally = stats.NewTally(res.Outcomes)
	return res
}
