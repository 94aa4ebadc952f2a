package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cityhunter"
	"cityhunter/internal/citygen"
	"cityhunter/internal/core"
	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// NewWorld's defaults, which the world-build timings repeat layer by layer.
const (
	worldHeatCell  = 200.0
	worldMissSmall = 0.35
	worldMissMid   = 0.05
)

// worldBuild times each layer NewWorld composes, called with the arguments
// NewWorld passes them, reps times each.
func worldBuild(w workload, s seeds, reps int) (map[string][]float64, error) {
	cfg := w.cityConfig(s)
	cfg.Seed = s.world
	var (
		city  *citygen.City
		heat  *heatmap.Map
		err   error
		times = map[string][]float64{}
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"citygen.generate_s", func() error { city, err = citygen.Generate(cfg); return err }},
		{"heatmap.from_photos_s", func() error {
			heat, err = heatmap.FromPhotos(city.Bounds, worldHeatCell, city.Photos)
			return err
		}},
		{"pnl.new_model_s", func() error { _, err = pnl.NewModel(city.DB, heat, pnl.DefaultConfig()); return err }},
		{"wigle.sample_s", func() error {
			_, err = city.DB.SampleCrowdsourced(rand.New(rand.NewSource(s.world+999)), worldMissSmall, worldMissMid)
			return err
		}},
	}
	for _, st := range steps {
		t, err := timeSamples(reps, st.fn)
		if err != nil {
			return nil, fmt.Errorf("world build %s: %w", st.name, err)
		}
		times[st.name] = t
	}
	return times, nil
}

// coreSeed is the core engine seed a single-venue run derives from its run
// seed (scenario: cfg.Seed+1).
func coreSeed(runSeed int64) int64 { return runSeed + 1 }

// seedData is the SeedData a run's attacker at venue v is built from.
func seedData(world *cityhunter.World, v cityhunter.Venue) *core.SeedData {
	return &core.SeedData{DB: world.WiGLE, HeatMap: world.Heat, Position: v.Position}
}

// seeding times core.NewEngine and the wigle.NearestSSIDs query inside it
// for every venue an operation seeds, reps times each. newEngine holds one
// sample slice per venue.
func seeding(world *cityhunter.World, venues []cityhunter.Venue, runSeed int64, reps int) (newEngine [][]float64, nearest []float64, err error) {
	cfg := core.DefaultConfig(core.ModeFull)
	cfg.Seed = coreSeed(runSeed)
	for _, v := range venues {
		sd := seedData(world, v)
		t, err := timeSamples(reps, func() error { _, err := core.NewEngine(cfg, sd); return err })
		if err != nil {
			return nil, nil, fmt.Errorf("seeding %s: %w", v.Name, err)
		}
		newEngine = append(newEngine, t)
		t, err = timeSamples(reps, func() error {
			if got := world.WiGLE.NearestSSIDs(v.Position, cfg.NearbyCount); len(got) == 0 {
				return fmt.Errorf("no SSIDs near %s", v.Name)
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("seeding: %w", err)
		}
		nearest = append(nearest, t...)
	}
	return newEngine, nearest, nil
}

// peakConcurrent is the largest number of phones present at once.
func peakConcurrent(outcomes []cityhunter.Outcome) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(outcomes))
	for _, o := range outcomes {
		edges = append(edges, edge{o.Arrived, 1}, edge{o.Departed, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// fixtureStation is a passive receiver for the medium fixture.
type fixtureStation struct {
	addr ieee80211.MAC
	pos  geo.Point
	got  int
}

func (s *fixtureStation) Addr() ieee80211.MAC      { return s.addr }
func (s *fixtureStation) Pos() geo.Point           { return s.pos }
func (s *fixtureStation) Receive(*ieee80211.Frame) { s.got++ }

// broadcastBatch is how many broadcasts one medium sample times, so the
// clock's resolution is small against the sample.
const broadcastBatch = 16

// mediumBroadcast times sim.Medium.TransmitFrom of a broadcast probe, plus
// the delivery event it schedules, among stations phones placed uniformly
// in the venue's radio range. Each sample is the mean of one batch; it
// returns nanoseconds per broadcast.
func mediumBroadcast(v cityhunter.Venue, stations, samples int, seed int64) ([]float64, error) {
	if stations < 2 {
		return nil, fmt.Errorf("medium fixture needs 2 stations, have %d", stations)
	}
	rng := rand.New(rand.NewSource(seed))
	engine := sim.NewEngine()
	m := sim.NewMedium(engine, v.RadioRange)
	st := make([]*fixtureStation, stations)
	for i := range st {
		r := v.RadioRange * math.Sqrt(rng.Float64())
		a := 2 * math.Pi * rng.Float64()
		st[i] = &fixtureStation{
			addr: ieee80211.MAC{0x02, 0xbe, 0, byte(i >> 16), byte(i >> 8), byte(i)},
			pos:  geo.Pt(v.Position.X+r*math.Cos(a), v.Position.Y+r*math.Sin(a)),
		}
		if err := m.Attach(st[i]); err != nil {
			return nil, fmt.Errorf("medium fixture: %w", err)
		}
	}
	frames := make([]*ieee80211.Frame, stations)
	for i, s := range st {
		frames[i] = &ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC,
			SA:      s.addr,
			BSSID:   ieee80211.BroadcastMAC,
		}
	}
	out := make([]float64, 0, samples)
	k := 0
	for i := 0; i < samples; i++ {
		start := time.Now()
		for b := 0; b < broadcastBatch; b++ {
			tx := st[k%stations]
			engine.Run(m.TransmitFrom(tx.addr, frames[k%stations]))
			k++
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/broadcastBatch)
	}
	delivered := 0
	for _, s := range st {
		delivered += s.got
	}
	if delivered == 0 {
		return nil, fmt.Errorf("medium fixture: no broadcast was delivered")
	}
	return out, nil
}

// broadcastReplies times core.Engine.BroadcastReply on an engine seeded as
// the run seeds its attacker at v: once for each of n fresh clients, then a
// second time for each of them as repeat clients. It returns nanoseconds
// per call.
func broadcastReplies(world *cityhunter.World, v cityhunter.Venue, runSeed int64, n int) (fresh, repeat []float64, err error) {
	cfg := core.DefaultConfig(core.ModeFull)
	cfg.Seed = coreSeed(runSeed)
	e, err := core.NewEngine(cfg, seedData(world, v))
	if err != nil {
		return nil, nil, fmt.Errorf("reply fixture: %w", err)
	}
	obs := func(i, round int) linker.Observation {
		at := time.Duration(round*n+i) * time.Millisecond
		return linker.Observation{At: at, MAC: ieee80211.MAC{0x02, 0xfe, 0, byte(i >> 16), byte(i >> 8), byte(i)}}
	}
	for round, dst := range []*[]float64{&fresh, &repeat} {
		for i := 0; i < n; i++ {
			o := obs(i, round)
			start := time.Now()
			got := e.BroadcastReply(o.At, o, cfg.ReplyBudget)
			*dst = append(*dst, float64(time.Since(start).Nanoseconds()))
			if len(got) == 0 || len(got) > maxRepliesPerScan {
				return nil, nil, fmt.Errorf("reply fixture: %d responses to one broadcast probe", len(got))
			}
		}
	}
	return fresh, repeat, nil
}
