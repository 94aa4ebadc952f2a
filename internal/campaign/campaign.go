// Package campaign orchestrates sets of simulation runs — the shape of
// every evaluation in the paper (the Figure 5 grid alone is 4 venues × 12
// slots) and of every large parameter sweep beyond it.
//
// A campaign is a list of declarative run specs fanned out over a bounded
// worker pool. Each spec derives its own seed, so results are byte-identical
// regardless of worker count or completion order; aggregation (mean/CI via
// internal/stats) happens deterministically in spec order after the pool
// drains. The executor honors context.Context end to end: cancellation is
// threaded through scenario.RunContext into the sim.Engine event loop, so
// mid-flight runs stop promptly and the campaign returns the runs that
// completed plus ctx.Err().
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cityhunter/internal/obs"
	"cityhunter/internal/scenario"
	"cityhunter/internal/stats"
)

// Spec declares one run of a campaign. The zero value of every optional
// field means "inherit from the campaign base configuration".
type Spec struct {
	// Name labels the run in progress callbacks and reports.
	Name string
	// Venue is the deployment site.
	Venue scenario.Venue
	// Attack selects the strategy.
	Attack scenario.AttackKind
	// Slot is the hour slot (0 = the profile's first hour).
	Slot int
	// Duration is the run length.
	Duration time.Duration
	// Seed overrides the run seed. 0 derives a per-spec seed from the
	// campaign base seed and the spec index (base*1000 + index + 1), so
	// specs decorrelate by default.
	Seed int64

	// Declarative knobs. Pointer fields distinguish "unset" (inherit the
	// base configuration) from an explicit zero. These fields — unlike
	// Configure — survive plan round trips (plan.Save/plan.Load).
	DirectProberFraction *float64
	ScanInterval         *time.Duration
	ArrivalScale         *float64
	FrameLoss            *float64
	CanaryFraction       *float64
	RandomizeMACFraction *float64
	PreconnectedFraction *float64
	Deauth               bool
	Sentinel             bool
	CautiousMirror       bool
	// Randomization names the MAC rotation policy applied to the
	// randomizing share (none|per-scan|per-burst|timed; see
	// scenario.RandomizationByName). Empty inherits the base
	// configuration — for legacy specs, the historical per-scan flag.
	Randomization string
	// Linker names the attacker's de-anonymisation linker
	// (mac|seq|fingerprint|pnl|composite; see scenario.LinkerByName).
	// Empty inherits the base configuration.
	Linker string

	// Configure, when non-nil, mutates the fully assembled run
	// configuration last — the programmatic escape hatch for knobs the
	// declarative fields do not cover (core-engine ablations, WiGLE
	// resampling, sampling periods). It is not serialised in plans.
	Configure func(*scenario.Config)

	// Deployment, when non-nil, turns this spec into a multi-site
	// deployment run: its Sites replace Venue (which must stay zero), its
	// knowledge plane and roaming model apply, and the spec's result lands
	// in Outcome.Deployments instead of Outcome.Results. The Deployment's
	// Base is ignored — the campaign assembles it from the campaign base
	// and this spec's declarative knobs. Like Configure, it is not
	// serialised in campaign plans (persist it as a deployment plan).
	Deployment *scenario.DeploymentConfig
}

// attackNames maps the plan and job-submission encoding of attacks to
// attack kinds.
var attackNames = map[string]scenario.AttackKind{
	"karma":         scenario.KARMA,
	"mana":          scenario.MANA,
	"prelim":        scenario.CityHunterPreliminary,
	"cityhunter":    scenario.CityHunter,
	"known-beacons": scenario.KnownBeacons,
}

// AttackByName resolves the file encoding of an attack
// (karma|mana|prelim|cityhunter|known-beacons) — the same names campaign
// plans and job submissions use.
func AttackByName(name string) (scenario.AttackKind, bool) {
	k, ok := attackNames[name]
	return k, ok
}

// AttackName returns an attack kind's file encoding, or "" when the kind
// has none.
func AttackName(k scenario.AttackKind) string {
	for name, kind := range attackNames {
		if kind == k {
			return name
		}
	}
	return ""
}

// Pool configures the campaign worker pool.
type Pool struct {
	// Workers bounds concurrent runs. 0 selects GOMAXPROCS; 1 forces
	// serial execution. Results are identical either way.
	Workers int
	// OnProgress, when non-nil, is invoked (serially, from pool
	// goroutines) after each spec finishes, successfully or not.
	OnProgress func(Progress)
	// Publisher, when non-nil, streams the campaign into a live monitor:
	// the pool registers one "campaign" run carrying progress gauges
	// (specs total/done/running/failed, ETA from completed-spec wall
	// times), and every spec's run publishes its own virtual-time
	// telemetry unless the base configuration already set a publisher.
	// Results stay byte-identical — publishing is read-only.
	Publisher obs.Publisher
	// PublishEvery overrides the per-run snapshot cadence (virtual time);
	// 0 keeps the scenario default.
	PublishEvery time.Duration
	// Label names the campaign on the monitor; empty derives "campaign
	// (N specs)".
	Label string
	// Labels, when non-empty, is merged into the campaign run's monitor
	// labels and into every spec run's labels (explicit per-run labels
	// win). The job server uses it to scope metrics to a job id.
	Labels map[string]string
	// Completed, when non-nil, reports whether spec i already has a
	// durable result; such specs are skipped (marked in Outcome.Skipped
	// and Progress.Skipped, counted as done, never run). The job server
	// uses it to resume a checkpointed campaign from its result store.
	Completed func(i int) bool
	// Drain, when non-nil and closed, stops dispatching new specs while
	// letting in-flight runs finish. If any spec was left unstarted, Run
	// returns ErrDrained alongside the partial outcome — the graceful
	// SIGTERM path, distinct from hard ctx cancellation.
	Drain <-chan struct{}
}

// ErrDrained reports that the pool's Drain channel was closed before every
// spec was dispatched: in-flight specs finished, the rest never started.
var ErrDrained = errors.New("campaign: drained before completion")

// Progress reports one finished spec.
type Progress struct {
	// Index is the spec's position in Campaign.Specs.
	Index int
	// Name is the spec's label.
	Name string
	// Err is the spec's error, nil on success.
	Err error
	// Done counts specs finished so far (including this one); Total is
	// the campaign size.
	Done, Total int
	// Skipped marks a spec that was never run because Pool.Completed
	// reported a durable result for it.
	Skipped bool
	// Result and Deployment carry the spec's result (one of them,
	// matching the spec kind; both nil when the spec errored or was
	// skipped) so checkpointing callbacks can persist it without waiting
	// for the campaign to finish.
	Result     *scenario.Result
	Deployment *scenario.DeploymentResult
}

// Campaign is a set of runs over one world.
type Campaign struct {
	// Base is the shared run configuration: the world handles (city, heat
	// map, PNL model, WiGLE snapshot), the base seed, and any defaults
	// specs inherit. Venue, Attack and Seed are overridden per spec.
	Base scenario.Config
	// Specs lists the runs. Order defines result order and default seed
	// derivation, never execution order.
	Specs []Spec
	// Pool bounds and instruments the fan-out.
	Pool Pool
}

// Aggregate summarises a campaign's error-free runs, in spec order, so the
// numbers are independent of worker count and completion order.
type Aggregate struct {
	// Runs counts the error-free runs aggregated here.
	Runs int
	// TotalClients and TotalVictims sum the tallies.
	TotalClients int
	TotalVictims int
	// HitRate and BroadcastHitRate summarise the per-run rates (mean,
	// min–max band, sample SD).
	HitRate          stats.RateSummary
	BroadcastHitRate stats.RateSummary
	// BroadcastLo and BroadcastHi are the pooled Wilson 95 % interval
	// over every broadcast client of every run.
	BroadcastLo, BroadcastHi float64
}

// String renders the aggregate as a one-line summary.
func (a Aggregate) String() string {
	return fmt.Sprintf("%d runs, %d clients, %d victims, h=%v h_b=%v pooled 95%% CI [%.1f%%, %.1f%%]",
		a.Runs, a.TotalClients, a.TotalVictims, a.HitRate, a.BroadcastHitRate,
		100*a.BroadcastLo, 100*a.BroadcastHi)
}

// Outcome is everything a campaign produces. Results and Errs are indexed
// by spec: a spec that never started (cancelled before dispatch) has a nil
// Result and a nil error; a spec cancelled mid-flight keeps its partial
// Result alongside the context error.
type Outcome struct {
	// Results holds each spec's run result, in spec order. Deployment
	// specs leave their entry nil and fill Deployments instead.
	Results []*scenario.Result
	// Deployments holds each deployment spec's result, in spec order;
	// nil for single-venue specs.
	Deployments []*scenario.DeploymentResult
	// Errs holds each spec's error, in spec order.
	Errs []error
	// Skipped marks specs that Pool.Completed reported as already done;
	// their Results/Deployments entries are nil and they do not
	// contribute to the aggregate (the caller already has them).
	Skipped []bool
	// Completed counts error-free runs.
	Completed int
	// Aggregate is the deterministic summary over error-free runs
	// (deployment specs contribute their pooled tally).
	Aggregate Aggregate
}

// Validate checks every spec and names the offending spec and field.
func (c *Campaign) Validate() error {
	if c.Base.City == nil || c.Base.HeatMap == nil {
		return fmt.Errorf("campaign: base config needs a city and heat map")
	}
	if len(c.Specs) == 0 {
		return fmt.Errorf("campaign: no run specs")
	}
	for i, s := range c.Specs {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("campaign: spec %d (%s): %w", i, name, err)
		}
	}
	return nil
}

// config assembles spec i's full run configuration from the base.
func (c *Campaign) config(i int) scenario.Config {
	s := c.Specs[i]
	cfg := c.Base
	cfg.Venue = s.Venue
	cfg.Attack = s.Attack
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	} else {
		cfg.Seed = c.Base.Seed*1000 + int64(i) + 1
	}
	if s.DirectProberFraction != nil {
		cfg.DirectProberFraction = *s.DirectProberFraction
	}
	if s.ScanInterval != nil {
		cfg.ScanInterval = *s.ScanInterval
	}
	if s.ArrivalScale != nil {
		cfg.ArrivalScale = *s.ArrivalScale
	}
	if s.FrameLoss != nil {
		cfg.FrameLoss = *s.FrameLoss
	}
	if s.CanaryFraction != nil {
		cfg.CanaryFraction = *s.CanaryFraction
	}
	if s.RandomizeMACFraction != nil {
		cfg.RandomizeMACFraction = *s.RandomizeMACFraction
	}
	if s.PreconnectedFraction != nil {
		cfg.PreconnectedFraction = *s.PreconnectedFraction
	}
	if s.Deauth {
		cfg.EnableDeauth = true
	}
	if s.Sentinel {
		cfg.Sentinel = true
	}
	if s.CautiousMirror {
		cfg.CautiousMirror = true
	}
	if s.Randomization != "" {
		// Validate has vetted the name.
		cfg.Randomization = scenario.RandomizationByName[s.Randomization]
	}
	if s.Linker != "" {
		cfg.Linker = scenario.LinkerByName[s.Linker]
	}
	if s.Configure != nil {
		s.Configure(&cfg)
	}
	if len(c.Pool.Labels) > 0 {
		// Job-scoped labels ride along on every spec's run; explicit
		// per-run labels (Base or Configure) win on conflict.
		merged := make(map[string]string, len(c.Pool.Labels)+len(cfg.RunLabels))
		for k, v := range c.Pool.Labels {
			merged[k] = v
		}
		for k, v := range cfg.RunLabels {
			merged[k] = v
		}
		cfg.RunLabels = merged
	}
	if c.Pool.Publisher != nil && cfg.Publisher == nil {
		// Each spec's run registers itself on the campaign's monitor; an
		// explicit per-run publisher set via Base or Configure wins.
		cfg.Publisher = c.Pool.Publisher
		if c.Pool.PublishEvery > 0 {
			cfg.PublishEvery = c.Pool.PublishEvery
		}
		if cfg.RunLabel == "" {
			cfg.RunLabel = s.Name
		}
	}
	return cfg
}

// Run executes the campaign. It blocks until every dispatched run has
// finished (no goroutine outlives the call).
//
// On success the error is nil and Outcome covers every spec. When ctx is
// cancelled, dispatch stops, in-flight runs stop promptly (their partial
// results are kept with their context errors), and Run returns the outcome
// so far together with ctx.Err(). When a spec fails for a non-context
// reason, the rest of the campaign is cancelled the same way and Run
// returns the lowest-index spec error — deterministic even though several
// specs may fail concurrently.
func (c *Campaign) Run(ctx context.Context) (*Outcome, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Specs)
	workers := c.Pool.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// An internal cancel lets the first hard failure stop the rest of the
	// campaign the same way an external cancel would.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	feed := startCampaignFeed(c.Pool, n, workers)

	out := &Outcome{
		Results:     make([]*scenario.Result, n),
		Deployments: make([]*scenario.DeploymentResult, n),
		Errs:        make([]error, n),
		Skipped:     make([]bool, n),
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		done     int
		failures int
		failed   bool
		drained  bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failed || next >= n || runCtx.Err() != nil {
					mu.Unlock()
					return
				}
				if c.Pool.Drain != nil {
					select {
					case <-c.Pool.Drain:
						drained = true
						mu.Unlock()
						return
					default:
					}
				}
				i := next
				next++
				if c.Pool.Completed != nil && c.Pool.Completed(i) {
					// Durable result already exists: count the spec done
					// without running it. The caller holds the result, so
					// the outcome just marks the slot.
					out.Skipped[i] = true
					done++
					feed.specSkipped(i, c.Specs[i].Name, done)
					if c.Pool.OnProgress != nil {
						c.Pool.OnProgress(Progress{
							Index: i, Name: c.Specs[i].Name,
							Skipped: true, Done: done, Total: n,
						})
					}
					mu.Unlock()
					continue
				}
				mu.Unlock()

				cfg := c.config(i)
				feed.specStarted()
				specStart := time.Now()
				var (
					res *scenario.Result
					dep *scenario.DeploymentResult
					err error
				)
				if d := c.Specs[i].Deployment; d != nil {
					dcfg := *d
					dcfg.Base = cfg
					dep, err = scenario.RunDeploymentContext(runCtx, dcfg, c.Specs[i].Slot, c.Specs[i].Duration)
				} else {
					res, err = scenario.RunContext(runCtx, cfg, c.Specs[i].Slot, c.Specs[i].Duration)
				}
				specWall := time.Since(specStart)

				mu.Lock()
				out.Results[i] = res
				out.Deployments[i] = dep
				out.Errs[i] = err
				done++
				if err != nil {
					failures++
				}
				if err != nil && runCtx.Err() == nil {
					// A hard spec failure (not a cancellation): stop
					// dispatching and cancel in-flight runs.
					failed = true
					cancel()
				}
				feed.specFinished(i, c.Specs[i].Name, specWall, err, done, failures)
				if c.Pool.OnProgress != nil {
					c.Pool.OnProgress(Progress{
						Index: i, Name: c.Specs[i].Name,
						Err: err, Done: done, Total: n,
						Result: res, Deployment: dep,
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	out.aggregate()
	err := c.runError(ctx, out)
	if err == nil && drained && next < n {
		err = ErrDrained
	}
	feed.finish(err)
	if err != nil {
		return out, err
	}
	return out, nil
}

// runError selects the error Run reports: the external cancellation if
// any, else the lowest-index hard spec failure. Runs the internal cancel
// swept up carry context errors; they are collateral, not the cause.
func (c *Campaign) runError(ctx context.Context, out *Outcome) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var firstErr error
	firstIdx := -1
	for i, err := range out.Errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr, firstIdx = err, i
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("campaign: spec %d (%s): %w", i, c.Specs[i].Name, err)
		}
	}
	if firstErr != nil {
		return fmt.Errorf("campaign: spec %d (%s): %w", firstIdx, c.Specs[firstIdx].Name, firstErr)
	}
	return nil
}

// AggregateTallies summarises per-run tallies, in order, exactly as a
// campaign aggregates its error-free runs. Exported so callers that hold
// durable per-spec results (the job server's resume path) can rebuild a
// campaign aggregate that is byte-identical to an uninterrupted run.
func AggregateTallies(tallies []stats.Tally) Aggregate {
	var (
		a          Aggregate
		hitRates   []float64
		bcastRates []float64
		bcastHit   int
		bcastN     int
	)
	for _, t := range tallies {
		a.TotalClients += t.Total
		a.TotalVictims += t.ConnectedDirect + t.ConnectedBroadcast
		hitRates = append(hitRates, t.HitRate())
		bcastRates = append(bcastRates, t.BroadcastHitRate())
		bcastHit += t.ConnectedBroadcast
		bcastN += t.Broadcast
	}
	a.Runs = len(tallies)
	a.HitRate = stats.SummarizeRates(hitRates)
	a.BroadcastHitRate = stats.SummarizeRates(bcastRates)
	a.BroadcastLo, a.BroadcastHi = stats.WilsonInterval(bcastHit, bcastN)
	return a
}

// aggregate fills Outcome.Completed and Outcome.Aggregate from the
// error-free runs, in spec order. Skipped specs do not contribute — the
// caller that skipped them already holds their results.
func (o *Outcome) aggregate() {
	var tallies []stats.Tally
	for i, res := range o.Results {
		switch {
		case o.Errs[i] != nil:
			continue
		case res != nil:
			tallies = append(tallies, res.Tally)
		case i < len(o.Deployments) && o.Deployments[i] != nil:
			tallies = append(tallies, o.Deployments[i].Tally)
		default:
			continue
		}
	}
	o.Completed = len(tallies)
	o.Aggregate = AggregateTallies(tallies)
}
