package scenario

import (
	"math/rand"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
	"cityhunter/internal/stats"
)

// member is one phone in the crowd with its schedule.
type member struct {
	c        *client.Client
	arrived  time.Duration
	departAt time.Duration
	direct   bool

	// site is the index of the deployment site the phone currently dwells
	// at (always 0 for a single-venue run).
	site int
	// legStart anchors the current movement path; equal to arrived until
	// the phone roams to another site.
	legStart time.Duration
	// leg counts movement legs (dwell, transit, dwell, ...). Position
	// tickers capture it and stop when a newer leg supersedes them.
	leg int
	// roams counts completed inter-site transits.
	roams int
}

// macAllocator hands out unique, deterministic client MACs (locally
// administered). It lives on the runEnv: serial deployments share the one
// env's allocator across their per-site populations so phones stay unique
// city-wide; partitioned deployments give each site's env its own
// allocator in a per-site space
// (allocation order inside one shared space would depend on how arrivals
// interleave across partitions).
type macAllocator struct {
	next uint32
	// space overrides the leading two MAC bytes; the zero value selects
	// the classic locally administered 0x02,0x00 block.
	space [2]byte
}

func (a *macAllocator) mac() ieee80211.MAC {
	a.next++
	n := a.next
	sp := a.space
	if sp == ([2]byte{}) {
		sp = [2]byte{0x02, 0x00}
	}
	return ieee80211.MAC{sp[0], sp[1], byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// siteMACSpace is the per-site client MAC space partitioned deployments
// use: locally administered 0x06 block with the site index in byte two —
// disjoint from the classic 0x02,0x00 allocator and the far-field
// 0x02,0x10 space for any site count a deployment allows.
func siteMACSpace(siteIndex int) [2]byte {
	return [2]byte{0x06, byte(siteIndex)}
}

// population creates phones on arrival at one venue, moves the walkers,
// and ends everyone's dwell on schedule. What happens when a dwell ends is
// pluggable: a single-venue run departs the phone; a deployment may hand
// it a transit leg to another site.
type population struct {
	engine *sim.Engine
	medium *sim.Medium
	rng    *rand.Rand
	model  *pnl.Model
	cfg    Config
	obs    *obs.Runtime

	// venue is where this population spawns (Config.Venue for a
	// single-venue run, one of the deployment's sites otherwise).
	venue Venue
	// siteIndex is the venue's position in the deployment's site list.
	siteIndex int
	// legitMAC is the venue's legitimate AP for pre-connected phones.
	legitMAC ieee80211.MAC
	// attackers is the membership test for "associated to a rogue AP".
	attackers map[ieee80211.MAC]bool
	// endDwell, when non-nil, is invoked instead of Depart when a
	// member's dwell expires — the deployment roaming hook.
	endDwell func(*member)

	members []*member
	macs    *macAllocator
}

func newPopulation(env *runEnv, venue Venue, legitMAC ieee80211.MAC, attackers map[ieee80211.MAC]bool) *population {
	return &population{
		engine: env.engine, medium: env.medium, rng: env.rng,
		model: env.model, cfg: env.cfg, obs: env.rt,
		venue: venue, legitMAC: legitMAC, attackers: attackers, macs: env.macs,
	}
}

// spawnArrivals schedules the slot's arrival stream as social groups.
// Group-size draws happen here, at scheduling time, in arrival order.
func (p *population) spawnArrivals(arrivals []time.Duration, slotStart time.Duration, groups mobility.GroupModel, horizon time.Duration) {
	for i := 0; i < len(arrivals); {
		at := arrivals[i] - slotStart
		size := groups.SampleSize(p.rng)
		if size > len(arrivals)-i {
			size = len(arrivals) - i
		}
		p.spawnGroup(at, size, horizon)
		i += size
	}
}

// spawnGroup schedules a social group of the given size to arrive at the
// offset. Group members walk together: same movement type, correlated
// dwell, shared PNL entries.
func (p *population) spawnGroup(at time.Duration, size int, horizon time.Duration) {
	p.engine.At(at, func() {
		venue := p.venue
		moving := p.rng.Float64() < venue.MovingFraction
		var dwell time.Duration
		if moving {
			dwell = venue.MovingDwell.SampleDwell(p.rng)
		} else {
			dwell = venue.StaticDwell.SampleDwell(p.rng)
		}

		var leaderPNL pnl.List
		var path mobility.Path
		if moving {
			path = mobility.CorridorPath(p.rng, venue.Position, venue.RadioRange, dwell)
		}
		for i := 0; i < size; i++ {
			// Companions stay within ±10 % of the leader's dwell.
			d := dwell
			if i > 0 {
				d = time.Duration(float64(dwell) * (0.9 + 0.2*p.rng.Float64()))
			}
			var list pnl.List
			if i == 0 {
				list = p.model.NewList(p.rng, venue.Position)
				leaderPNL = list
			} else {
				list = p.model.NewCompanionList(p.rng, venue.Position, leaderPNL)
			}
			p.spawnMember(list, moving, path, d)
		}
		_ = horizon
	})
}

func (p *population) spawnMember(list pnl.List, moving bool, path mobility.Path, dwell time.Duration) {
	now := p.engine.Now()
	direct := p.rng.Float64() < p.cfg.DirectProberFraction
	if direct {
		// Unsafe phones skew towards more remembered open networks.
		list = p.model.AugmentUnsafe(p.rng, list)
	}
	cfg := client.Config{
		MAC:           p.macs.mac(),
		PNL:           list,
		DirectProber:  direct,
		ScanInterval:  time.Duration(float64(p.cfg.ScanInterval) * (0.7 + 0.6*p.rng.Float64())),
		CanaryProbing: p.cfg.CanaryFraction > 0 && p.rng.Float64() < p.cfg.CanaryFraction,
		Obs:           p.obs,
	}
	p.cfg.applyRandomization(&cfg, p.rng)
	if p.cfg.PreconnectedFraction > 0 && p.rng.Float64() < p.cfg.PreconnectedFraction {
		cfg.PreconnectedBSSID = p.legitMAC
	}
	c, err := client.New(p.engine, p.medium, p.rng, cfg)
	if err != nil {
		// Only reachable through programming errors (zero MAC); drop the
		// member rather than corrupt the run.
		return
	}
	if moving {
		c.SetPos(path.At(0))
	} else {
		c.SetPos(mobility.StaticPos(p.rng, p.venue.Position, p.venue.RadioRange*0.9))
	}
	if err := c.Start(); err != nil {
		return
	}

	m := &member{c: c, arrived: now, departAt: now + dwell, direct: cfg.DirectProber,
		site: p.siteIndex, legStart: now}
	p.members = append(p.members, m)

	if moving {
		p.scheduleMove(m, path)
	}
	p.engine.At(m.departAt, func() { p.finishDwell(m) })
}

// finishDwell ends a member's stay at its current site: a deployment with
// roaming may hand the phone a transit leg; everyone else leaves.
func (p *population) finishDwell(m *member) {
	if p.endDwell != nil {
		p.endDwell(m)
		return
	}
	m.c.Depart()
}

// scheduleMove updates a walker's position every 2 s along its path. The
// ticker dies when the phone departs or starts a newer movement leg. It
// captures the client pointer and consults its state before any member
// field: in a partitioned deployment a suspended phone's old client is
// Departed forever while ANOTHER partition rewrites the member for the
// next dwell, so the state check is the only read a stale ticker may make.
func (p *population) scheduleMove(m *member, path mobility.Path) {
	const step = 2 * time.Second
	leg := m.leg
	c := m.c
	legStart := m.legStart
	var tick func()
	tick = func() {
		if c.State() == client.StateDeparted || m.leg != leg {
			return
		}
		c.SetPos(path.At(p.engine.Now() - legStart))
		p.engine.Schedule(step, tick)
	}
	p.engine.Schedule(step, tick)
}

// outcomes summarises every member after the run. engines lists the
// distinct City-Hunter engines whose reply counts should be credited (a
// roaming phone may have been served by several isolated sites).
func (p *population) outcomes(now time.Duration, engines []*core.Engine) []stats.ClientOutcome {
	out := make([]stats.ClientOutcome, 0, len(p.members))
	for _, m := range p.members {
		st := m.c.Stats
		departed := m.departAt
		if departed > now {
			departed = now
		}
		o := stats.ClientOutcome{
			Arrived:      m.arrived,
			Departed:     departed,
			DirectProber: m.direct,
			Probed:       st.BroadcastProbes+st.DirectProbes > 0,
			Connected:    st.Connected && p.attackers[st.ConnectedTo],
			ConnectedAt:  st.ConnectedAt,
			MACsUsed:     len(m.c.UsedMACs()),
		}
		for _, eng := range engines {
			o.SSIDsSent += eng.SentCountAcross(m.c.UsedMACs())
		}
		out = append(out, o)
	}
	return out
}
