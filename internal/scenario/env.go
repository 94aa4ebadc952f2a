package scenario

import (
	"fmt"
	"math/rand"

	"cityhunter/internal/client"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// runEnv is the world-build layer shared by the single-venue runner and
// multi-site deployments: the virtual-time engine, ONE city-wide radio
// medium, the observability runtime, and the PNL model. Everything above
// this layer — sites, attackers, populations — plugs into the same four
// handles, which is what lets a deployment place N attackers in one city.
type runEnv struct {
	cfg    Config
	rng    *rand.Rand
	engine *sim.Engine
	medium *sim.Medium
	rt     *obs.Runtime
	model  *pnl.Model
	// macs hands out the client MACs of the populations on this env.
	macs *macAllocator

	// labelSites makes per-site instrumentation stamp a "site" label on
	// its metric series. Deployments set it so a live monitor can tell N
	// co-resident attackers apart; single-venue runs leave it off to keep
	// their metric dumps byte-stable.
	labelSites bool
}

// siteLabels returns the label pairs for one site's metric series — empty
// unless this environment labels sites.
func (env *runEnv) siteLabels(venueName string) []string {
	if !env.labelSites {
		return nil
	}
	return []string{"site", venueName}
}

// siteMetricLabel is the scalar form of siteLabels for components that take
// one optional site name.
func siteMetricLabel(env *runEnv, venueName string) string {
	if !env.labelSites {
		return ""
	}
	return venueName
}

// normalized validates the population and radio knobs and fills defaults.
// Structural checks (city/heat map presence, slot bounds, duration) stay
// with the callers because they differ between a run and a deployment.
func (cfg Config) normalized() (Config, error) {
	if cfg.DirectProberFraction < 0 || cfg.DirectProberFraction > 1 {
		return cfg, fmt.Errorf("scenario: direct prober fraction %v outside [0,1]", cfg.DirectProberFraction)
	}
	if cfg.PreconnectedFraction < 0 || cfg.PreconnectedFraction > 1 {
		return cfg, fmt.Errorf("scenario: preconnected fraction %v outside [0,1]", cfg.PreconnectedFraction)
	}
	if cfg.CanaryFraction < 0 || cfg.CanaryFraction > 1 {
		return cfg, fmt.Errorf("scenario: canary fraction %v outside [0,1]", cfg.CanaryFraction)
	}
	if cfg.RandomizeMACFraction < 0 || cfg.RandomizeMACFraction > 1 {
		return cfg, fmt.Errorf("scenario: randomize-MAC fraction %v outside [0,1]", cfg.RandomizeMACFraction)
	}
	if cfg.FrameLoss < 0 || cfg.FrameLoss >= 1 {
		return cfg, fmt.Errorf("scenario: frame loss %v outside [0,1)", cfg.FrameLoss)
	}
	if err := cfg.validateLinking(); err != nil {
		return cfg, err
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = client.DefaultScanInterval
	}
	if cfg.ArrivalScale <= 0 {
		cfg.ArrivalScale = 1
	}
	return cfg, nil
}

// newRunEnv builds the environment layer. radioRange is the medium's
// delivery radius: the venue's range for a single-venue run, the largest
// site range for a deployment (the spatial hash grid keeps far-apart sites
// cheap). Construction consumes no randomness beyond creating the seeded
// generator, so the layers above it draw in a stable order.
func newRunEnv(cfg Config, radioRange float64) (*runEnv, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	engine := sim.NewEngine()
	var mediumOpts []sim.MediumOption
	if cfg.FrameLoss > 0 {
		mediumOpts = append(mediumOpts, sim.WithFrameLoss(cfg.FrameLoss, cfg.Seed+5))
	}
	medium := sim.NewMedium(engine, radioRange, mediumOpts...)

	// Observability: one runtime feeds every instrumented layer. It never
	// consumes run randomness, so enabling it cannot perturb a seed.
	var rt *obs.Runtime
	if cfg.Metrics || cfg.FlightRecorderCap > 0 || cfg.SpanTrace || cfg.Publisher != nil {
		rt = &obs.Runtime{}
		if cfg.Metrics || cfg.Publisher != nil {
			// A live publisher needs the registry even when the caller did
			// not ask for a post-run snapshot.
			rt.Metrics = obs.NewRegistry()
		}
		if cfg.FlightRecorderCap > 0 {
			rt.Journal = obs.NewJournal(cfg.FlightRecorderCap)
			// Surface ring overwrites on the live registry, not only in
			// Journal.Dropped after the run.
			rt.Journal.Overflow = rt.Metrics.Counter("obs_journal_overwritten_events")
		}
		if cfg.SpanTrace {
			rt.Trace = obs.NewTrace()
		}
		engine.Instrument(rt)
		medium.Instrument(rt)
	}

	pnlModel := cfg.PNL
	if pnlModel == nil {
		var err error
		pnlModel, err = pnl.NewModel(cfg.City.DB, cfg.HeatMap, pnl.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("scenario: build pnl model: %w", err)
		}
	}
	return &runEnv{cfg: cfg, rng: rng, engine: engine, medium: medium, rt: rt, model: pnlModel, macs: &macAllocator{}}, nil
}
