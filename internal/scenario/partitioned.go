package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// This file holds what only the partitioned engine needs: its admission
// checks, the lookahead derivation, and the per-site environments. The
// deployment itself runs through the one driver in deployment.go, whose
// per-site handles (envs[i]) are distinct here and one shared env on the
// serial engine. The driver branches on the engine at exactly these
// points:
//
//   - env construction: newSerialDeployment or newPartitionedDeployment,
//     plus the post-run journal merge and the "partitions" feed label;
//   - every: an engine event, or a coordinator barrier event;
//   - run / now: the serial engine, or the coordinator;
//   - handoff: a scanning walk, or Suspend → coord.Post → Resume.
//
// Partitioned mode is a second deterministic semantics, not a parallel
// re-execution of the serial one. The serial engine funnels every site's
// population draws through ONE run RNG, so its event stream is inherently
// serial; the partitioned engine gives every site its own RNG stream,
// radio shard, and MAC space, which is what makes its results identical at
// any partition count and any GOMAXPROCS — a one-partition run IS the
// reference the determinism tests compare against. The semantic deltas,
// and why each is forced, are catalogued in DESIGN §5.13:
//
//   - Per-site RNG streams (seed+500+1000·i) instead of one shared stream.
//   - Per-site radio shards: RF never crosses venues (sites must be
//     farther apart than the sum of their radio ranges — validated), so a
//     roaming phone is radio-silent during its inter-site walk instead of
//     scanning into empty air.
//   - Per-site client MAC spaces (0x06 block) instead of one allocator.
//   - Shared-plane knowledge is rejected: one database behind all sites
//     has zero lookahead, the antithesis of a conservative scheme.
//   - Span traces are rejected: obs.Trace is not safe for concurrent
//     track allocation.

// partitionCount resolves the configured partition count against the site
// count: AutoPartitions means one partition per site, and an explicit
// count is clamped to the number of sites (an empty partition would only
// add barrier latency).
func partitionCount(requested, nsites int) int {
	n := requested
	if n == AutoPartitions {
		n = nsites
	}
	if n > nsites {
		n = nsites
	}
	if n < 1 {
		n = 1
	}
	return n
}

// partitionRFGap returns the smallest pairwise RF gap between sites:
// distance minus both radio ranges. Partition-local radio needs it
// positive — a phone at site A must be provably unhearable at site B.
func partitionRFGap(sites []Venue) (gap float64, a, b int) {
	gap = math.Inf(1)
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			g := sites[i].Position.Dist(sites[j].Position) - sites[i].RadioRange - sites[j].RadioRange
			if g < gap {
				gap, a, b = g, i, j
			}
		}
	}
	return gap, a, b
}

// partitionLookahead derives the coordinator's lookahead from deployment
// geometry. Two mechanisms carry state between sites, and each needs its
// minimum transfer latency:
//
//   - Roaming transits: every inter-site walk covers at least the minimum
//     RF gap, and mobility.TransitModel floors leg duration at one second,
//     so every arrival is posted at least max(1s, gap/maxSpeed) ahead.
//   - Level-of-detail handoffs: a pedestrian demoted at one site's
//     promotion boundary walks at least the boundary gap before promoting
//     at another, so consecutive cross-site windows are separated by at
//     least boundaryGap/maxSpeed — which must bound the window size for
//     the demote and the re-promote to fall in different windows (the
//     barrier between them is what hands the snapshot across safely).
//
// A single-site deployment has no cross-partition traffic at all; the
// whole run is one window.
func partitionLookahead(dcfg DeploymentConfig, transit mobility.TransitModel, ff *FarFieldConfig, duration time.Duration) (time.Duration, error) {
	if len(dcfg.Sites) < 2 {
		return duration, nil
	}
	gap, a, b := partitionRFGap(dcfg.Sites)
	if gap <= 0 {
		return 0, fmt.Errorf("scenario: partitioned execution needs disjoint radio ranges: sites %q and %q are %.0fm apart with ranges %.0fm and %.0fm",
			dcfg.Sites[a].Name, dcfg.Sites[b].Name,
			dcfg.Sites[a].Position.Dist(dcfg.Sites[b].Position),
			dcfg.Sites[a].RadioRange, dcfg.Sites[b].RadioRange)
	}
	look := time.Duration(gap / transit.SpeedMax * float64(time.Second))
	if look < time.Second {
		look = time.Second // the transit model floors leg duration at 1s
	}
	if ff != nil {
		pgap := math.Inf(1)
		pa, pb := 0, 0
		for i := range dcfg.Sites {
			for j := i + 1; j < len(dcfg.Sites); j++ {
				g := dcfg.Sites[i].Position.Dist(dcfg.Sites[j].Position) - 2*ff.Radius
				if g < pgap {
					pgap, pa, pb = g, i, j
				}
			}
		}
		if pgap <= 0 {
			return 0, fmt.Errorf("scenario: partitioned execution needs disjoint promotion boundaries: sites %q and %q are %.0fm apart with promotion radius %.0fm",
				dcfg.Sites[pa].Name, dcfg.Sites[pb].Name,
				dcfg.Sites[pa].Position.Dist(dcfg.Sites[pb].Position), ff.Radius)
		}
		rt := ff.Route.Transit
		if rt == (mobility.TransitModel{}) {
			rt = mobility.DefaultTransit()
		}
		if h := time.Duration(pgap / rt.SpeedMax * float64(time.Second)); h < look {
			look = h
		}
	}
	return look, nil
}

// newPartitionedDeployment builds the partitioned engine's environment:
// the coordinator over its partition engines, and per site an env with the
// site's partition engine, its own radio shard (same delivery radius as the
// serial medium), RNG stream, MAC space and journal. dcfg passed structural
// validation, cfg is normalized with its Venue cleared, and ff is the
// normalized far-field tier or nil.
func newPartitionedDeployment(dcfg DeploymentConfig, cfg Config, ff *FarFieldConfig, transit mobility.TransitModel, duration time.Duration, radioRange float64) (*deployment, error) {
	if dcfg.Knowledge == Shared {
		return nil, fmt.Errorf("scenario: partitioned execution cannot run a shared knowledge plane (one database behind all sites has zero lookahead); use isolated or periodic-sync")
	}
	if cfg.SpanTrace {
		return nil, fmt.Errorf("scenario: partitioned execution cannot record span traces (obs.Trace is single-threaded); disable SpanTrace or Partitions")
	}
	look, err := partitionLookahead(dcfg, transit, ff, duration)
	if err != nil {
		return nil, err
	}
	nparts := partitionCount(dcfg.Partitions, len(dcfg.Sites))
	coord, err := sim.NewPartitioned(nparts, look)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d := &deployment{coord: coord, partOf: make([]int, len(dcfg.Sites)), envs: make([]*runEnv, len(dcfg.Sites))}
	for i := range d.partOf {
		d.partOf[i] = i % nparts
	}

	// Observability: one shared registry (counters are atomic, and every
	// gauge series is either site-labelled or monotone), one coordinator
	// runtime, and one journal per site so each partition records events
	// race-free; the driver merges the journals by timestamp after the run.
	wantObs := cfg.Metrics || cfg.FlightRecorderCap > 0 || cfg.Publisher != nil
	var reg *obs.Registry
	if wantObs {
		d.rt = &obs.Runtime{}
		if cfg.Metrics || cfg.Publisher != nil {
			reg = obs.NewRegistry()
			d.rt.Metrics = reg
		}
		if cfg.FlightRecorderCap > 0 {
			d.rt.Journal = obs.NewJournal(cfg.FlightRecorderCap)
			d.rt.Journal.Overflow = reg.Counter("obs_journal_overwritten_events")
		}
		for i := 0; i < coord.Parts(); i++ {
			coord.Part(i).Instrument(d.rt)
		}
	}

	// The PNL model is shared — its pool cache is mutex-guarded and a pure
	// function of the query position, so concurrent use cannot perturb
	// results.
	model := cfg.PNL
	if model == nil {
		model, err = pnl.NewModel(cfg.City.DB, cfg.HeatMap, pnl.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("scenario: build pnl model: %w", err)
		}
	}
	for i := range dcfg.Sites {
		eng := coord.Part(d.partOf[i])
		var mediumOpts []sim.MediumOption
		if cfg.FrameLoss > 0 {
			mediumOpts = append(mediumOpts, sim.WithFrameLoss(cfg.FrameLoss, cfg.Seed+5+1000*int64(i)))
		}
		med := sim.NewMedium(eng, radioRange, mediumOpts...)
		var rt *obs.Runtime
		if wantObs {
			rt = &obs.Runtime{Metrics: reg}
			if cfg.FlightRecorderCap > 0 {
				rt.Journal = obs.NewJournal(cfg.FlightRecorderCap)
				rt.Journal.Overflow = reg.Counter("obs_journal_overwritten_events")
			}
			med.Instrument(rt)
		}
		d.envs[i] = &runEnv{
			cfg:        cfg,
			rng:        rand.New(rand.NewSource(cfg.Seed + 500 + 1000*int64(i))),
			engine:     eng,
			medium:     med,
			rt:         rt,
			model:      model,
			macs:       &macAllocator{space: siteMACSpace(i)},
			labelSites: true,
		}
	}
	return d, nil
}

// mergeJournals folds per-partition journals into one, ordered by virtual
// time with journal order (coordinator first, then site order) breaking
// ties — both independent of the partition count.
func mergeJournals(capacity int, journals []*obs.Journal) *obs.Journal {
	var all []obs.Event
	for _, j := range journals {
		if j != nil {
			all = append(all, j.Events()...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	merged := obs.NewJournal(capacity)
	for _, e := range all {
		merged.Record(e.At, e.Type, e.Actor, e.Detail)
	}
	return merged
}
