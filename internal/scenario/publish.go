package scenario

import (
	"fmt"
	"time"

	"cityhunter/internal/obs"
)

// DefaultPublishEvery is the virtual-time cadence between published metric
// snapshots when Config.PublishEvery is zero. Five virtual seconds keeps a
// one-hour run under a thousand snapshots while the time-series the paper
// plots (hit counts, association counts) stay smooth.
const DefaultPublishEvery = 5 * time.Second

// runFeed couples a registered run's publisher handle with the runtime
// whose registry it snapshots.
type runFeed struct {
	rp obs.RunPublisher
	rt *obs.Runtime
}

// startFeed registers the run with the configured publisher (nil-safe: no
// publisher, no feed), announces its sites on rt, and arms the
// virtual-time snapshot tick through every, reading the clock through now:
// an engine's for a single run, the deployment driver's for a deployment.
// The tick only reads the registry — it consumes no randomness and mutates
// no simulation state, so a published run is event-for-event identical to
// an unpublished one.
func startFeed(rt *obs.Runtime, cfg Config, every func(delay, period time.Duration, fn func()), now func() time.Duration,
	kind string, slot int, sites []*site, extra map[string]string) *runFeed {
	if cfg.Publisher == nil {
		return nil
	}
	labels := map[string]string{}
	for k, v := range cfg.RunLabels {
		labels[k] = v
	}
	labels["attack"] = cfg.Attack.String()
	labels["seed"] = fmt.Sprintf("%d", cfg.Seed)
	for k, v := range extra {
		labels[k] = v
	}
	label := cfg.RunLabel
	if label == "" {
		if len(sites) == 1 {
			label = fmt.Sprintf("%s/%s/slot%d", sites[0].venue.Name, cfg.Attack, slot)
		} else {
			label = fmt.Sprintf("%d sites/%s/slot%d", len(sites), cfg.Attack, slot)
		}
	}
	rp := cfg.Publisher.StartRun(obs.RunInfo{Kind: kind, Label: label, Labels: labels})
	rt.Publish = rp
	for _, st := range sites {
		rt.Event(0, obs.EventSiteDeploy, st.venue.Name,
			fmt.Sprintf("attacker %s at (%.0f,%.0f)", st.id.attackerMAC, st.venue.Position.X, st.venue.Position.Y))
	}
	period := cfg.PublishEvery
	if period <= 0 {
		period = DefaultPublishEvery
	}
	every(0, period, func() {
		rp.PublishSnapshot(now(), rt.Metrics.Snapshot())
	})
	return &runFeed{rp: rp, rt: rt}
}

// finish publishes the end-of-run snapshot — which now includes the
// runner-level tallies emitRunTelemetry just recorded — and closes the run
// on the monitor. Nil-safe.
func (f *runFeed) finish(simulated time.Duration, runErr error) {
	if f == nil {
		return
	}
	f.rp.PublishSnapshot(simulated, f.rt.Metrics.Snapshot())
	f.rp.FinishRun(simulated, runErr)
}
