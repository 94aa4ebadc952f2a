package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"cityhunter"
)

// options sizes one benchmark invocation.
type options struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool

	minOps         int // untraced operations timed at least
	tracedOps      int // traced operations at least
	counterpartOps int // operations on the other deployment engine
	setupReps      int // rounds of building every world, timed for setup_s
	layerReps      int // repetitions of each world-build and seeding call
	mediumSamples  int // medium fixture samples
	replyClients   int // reply fixture clients per round
}

func defaultOptions(wl workload, seed int64, seconds float64, trace bool) options {
	return options{
		wl: wl, seed: seed, seconds: seconds, trace: trace,
		minOps: wl.worlds, tracedOps: 2, counterpartOps: 2,
		setupReps: (setupBuilds + wl.worlds - 1) / wl.worlds,
		layerReps: 5, mediumSamples: 500, replyClients: 1000,
	}
}

// opRunner performs a workload's operations on one world, checks each, and
// counts attempts and failures on the report.
type opRunner struct {
	wl    workload
	world *cityhunter.World
	seeds seeds
	rep   *report
	ref   string // digest every operation must reproduce
}

func (r *opRunner) do(ctx context.Context, tr *opTrace) (cost, *outcome) {
	var (
		out *outcome
		err error
	)
	c := timed(func() { out, err = r.wl.runOp(ctx, r.world, r.seeds, tr) })
	r.rep.Attempted++
	if err == nil {
		err = verify(out, tr != nil, &r.ref)
	}
	if err != nil {
		r.rep.Failed++
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("%s op %d (traced=%t): %v", r.wl.name, r.rep.Attempted, tr != nil, err))
		return c, nil
	}
	return c, out
}

// warmUp fills the lazy caches a long-lived world keeps — the PNL model's
// per-position pools — so that no timed operation pays for them: a short
// KARMA run at each of the workload's venues draws phones there without
// seeding a City-Hunter engine. Warm-up runs count as attempted.
func (r *opRunner) warmUp(ctx context.Context) {
	for _, v := range r.wl.venues() {
		r.rep.Attempted++
		res, err := r.world.RunContext(ctx, v, cityhunter.KARMA, cityhunter.LunchSlot, time.Minute,
			cityhunter.WithRunSeed(r.seeds.run))
		if err == nil {
			err = check(&outcome{run: res}, false)
		}
		if err != nil {
			r.rep.Failed++
			r.rep.Failures = append(r.rep.Failures, fmt.Sprintf("%s warm-up at %s: %v", r.wl.name, v.Name, err))
		}
	}
}

// op is one timed operation; out is nil when it failed.
type op struct {
	cost
	world int
	out   *outcome
	trace *opTrace
}

// loop runs operations round-robin over the worlds' runners until at
// least n have been made and the deadline has passed. It returns the
// operations that succeeded.
func loop(ctx context.Context, runners []*opRunner, n int, deadline time.Time, traced bool) []op {
	var ops []op
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		o := op{world: i % len(runners)}
		if traced {
			o.trace = &opTrace{}
		}
		o.cost, o.out = runners[o.world].do(ctx, o.trace)
		if o.out != nil {
			ops = append(ops, o)
		}
	}
	return ops
}

func each(ops []op, f func(op) float64) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = f(o)
	}
	return out
}

func wallOf(o op) float64 { return o.wall.Seconds() }
func cpuOf(o op) float64  { return o.cpu.Seconds() }

// perWorld is the median over worlds of each world's median: every world
// weighs the same however many operations the time allowed it.
func perWorld(ops []op, f func(op) float64) float64 {
	return medianOf(worldMedians(ops, f))
}

func worldMedians(ops []op, f func(op) float64) []float64 {
	byWorld := map[int][]float64{}
	for _, o := range ops {
		byWorld[o.world] = append(byWorld[o.world], f(o))
	}
	medians := make([]float64, 0, len(byWorld))
	for _, v := range byWorld {
		medians = append(medians, medianOf(v))
	}
	return medians
}

func meanOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// setOps reports a per-operation metric: its value aggregates the worlds'
// medians with agg, its quartiles and count are over all operations.
func (r *report) setOps(name string, ops []op, f func(op) float64, agg func([]float64) float64) {
	s := summarize(each(ops, f))
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: agg(worldMedians(ops, f)), Unit: unitOf(name), Summary: &s})
}

// setupBuilds is about how many NewWorld calls setup_s is the median of.
const setupBuilds = 16

// bench runs one invocation: set-up, the untraced measurement, and with
// tracing the traced run and the layer fixtures.
func bench(ctx context.Context, o options, log io.Writer) (*report, error) {
	wl := o.wl
	ss := deriveSeeds(o.seed, wl.worlds)
	rep := &report{Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	start := time.Now()

	// Set-up: every world is built until about setupBuilds worlds have
	// been timed; setup_s is the median build.
	runners := make([]*opRunner, len(ss))
	var setup []float64
	for r := 0; r < o.setupReps; r++ {
		for j, s := range ss {
			t0 := time.Now()
			world, err := wl.newWorld(s)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setup = append(setup, time.Since(t0).Seconds())
			runners[j] = &opRunner{wl: wl, world: world, seeds: s, rep: rep}
		}
	}
	rep.setSampled("setup_s", setup)

	for _, r := range runners {
		r.warmUp(ctx)
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	ops := loop(ctx, runners, o.minOps, deadline, false)
	fmt.Fprintf(log, "untraced: %d operations on %d worlds in %s\n", len(ops), len(runners), elapsed(start))
	rep.Digest = combinedDigest(runners)
	rep.Recorded = recordedDigest(wl.name, o.seed)
	if len(ops) == 0 {
		return rep, nil // every operation failed; the failures say why
	}
	// Times take the median over worlds, which a host stall or an unusual
	// world layout moves no more than any other world. A world allocates
	// the same bytes on every operation, so alloc_mb has no host noise to
	// be robust against: its mean over worlds follows the mix of world
	// layouts smoothly where a median would jump between them.
	rep.setOps("wall_s", ops, wallOf, medianOf)
	rep.setOps("cpu_s", ops, cpuOf, medianOf)
	rep.setOps("alloc_mb", ops, func(o op) float64 { return float64(o.allocBytes) / (1 << 20) }, meanOf)
	rep.set("peak_rss_mb", peakRSSMB())
	if !o.trace {
		return rep, nil
	}

	wall, cpu := rep.value("wall_s"), rep.value("cpu_s")
	rep.setOps("runtime.gc_cycles", ops, func(o op) float64 { return float64(o.gcCycles) }, medianOf)
	rep.setOps("runtime.gc_pause_s", ops, func(o op) float64 { return o.gcPause }, medianOf)
	rep.set("partition.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))

	traced := loop(ctx, runners, o.tracedOps, time.Now().Add(time.Duration(o.seconds/2*float64(time.Second))), true)
	fmt.Fprintf(log, "traced: %d operations in %s\n", len(traced), elapsed(start))
	if len(traced) == 0 {
		return rep, nil
	}
	rep.set("trace.overhead", traceOverhead(ops, traced))
	layerPhases(rep, wl, traced)
	layerCounts(rep, traced[0].out)
	workerUtil := 0.0
	if wl.kind == campaign {
		workerUtil = perWorld(traced, func(o op) float64 {
			_, spans := o.trace.phases()
			return spans.Seconds() / (o.wall.Seconds() * float64(workers()))
		})
	}
	rep.set("campaign.worker_util", workerUtil)

	speedup := 1.0
	if cp, ok := wl.counterpart(); ok {
		r0 := runners[0]
		other := loop(ctx, []*opRunner{{wl: cp, world: r0.world, seeds: r0.seeds, rep: rep}}, o.counterpartOps, time.Time{}, false)
		world0 := medianOf(each(filterWorld(ops, 0), wallOf))
		if len(other) > 0 && world0 > 0 {
			speedup = world0 / medianOf(each(other, wallOf)) // serial wall over partitioned wall
			if wl.partitioned {
				speedup = 1 / speedup
			}
		}
	}
	rep.set("partition.speedup", speedup)

	// The fixtures use the first world, so seed_share divides by that
	// world's CPU time per operation.
	cpu0 := medianOf(each(filterWorld(ops, 0), cpuOf))
	if err := layerFixtures(rep, o, runners[0].world, runners[0].seeds, traced[0].out, cpu0); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "fixtures done in %s\n", elapsed(start))
	return rep, nil
}

func filterWorld(ops []op, world int) []op {
	var out []op
	for _, o := range ops {
		if o.world == world {
			out = append(out, o)
		}
	}
	return out
}

// traceOverhead compares traced with untraced operations world by world,
// so that it does not depend on which worlds the traced run reached.
func traceOverhead(untraced, traced []op) float64 {
	var ratios []float64
	seen := map[int]bool{}
	for _, t := range traced {
		if seen[t.world] {
			continue
		}
		seen[t.world] = true
		u := filterWorld(untraced, t.world)
		if len(u) == 0 {
			continue
		}
		ratios = append(ratios, medianOf(each(filterWorld(traced, t.world), wallOf))/medianOf(each(u, wallOf)))
	}
	if len(ratios) == 0 {
		return 0
	}
	return meanOf(ratios) - 1
}

// combinedDigest is the invocation's digest: its worlds' digests, in order.
func combinedDigest(runners []*opRunner) string {
	refs := make([]string, len(runners))
	for i, r := range runners {
		refs[i] = r.ref
	}
	sum := sha256.Sum256([]byte(strings.Join(refs, ",")))
	return hex.EncodeToString(sum[:])[:16]
}

// layerPhases reports the traced operations' phase split.
func layerPhases(rep *report, wl workload, traced []op) {
	runners := 1.0
	if wl.kind == campaign {
		runners = float64(workers())
	}
	phase := func(f func(phases) time.Duration) func(op) float64 {
		return func(o op) float64 {
			p, _ := o.trace.phases()
			return f(p).Seconds()
		}
	}
	named := []struct {
		name string
		f    func(op) float64
	}{
		{"prestart", phase(func(p phases) time.Duration { return p.prestart })},
		{"spawn", phase(func(p phases) time.Duration { return p.spawn })},
		{"event_loop", phase(func(p phases) time.Duration { return p.loop })},
		{"assembly", phase(func(p phases) time.Duration { return p.assembly })},
	}
	total := 0.0
	for _, n := range named {
		rep.setOps("scenario."+n.name+"_s", traced, n.f, medianOf)
		total += rep.value("scenario." + n.name + "_s")
	}
	for _, n := range named {
		rep.set("scenario."+n.name+"_share", ratio(rep.value("scenario."+n.name+"_s"), total))
	}
	rep.set("scenario.setup_share", ratio(rep.value("scenario.prestart_s")+rep.value("scenario.spawn_s"), total))
	rep.set("scenario.unaccounted_share", perWorld(traced, func(o op) float64 {
		_, spans := o.trace.phases()
		return 1 - spans.Seconds()/(o.wall.Seconds()*runners)
	}))
}

// snapshots are an operation's metric snapshots: one per run, or one per
// deployment.
func (o *outcome) snapshots() []cityhunter.MetricsSnapshot {
	switch {
	case o.run != nil:
		return []cityhunter.MetricsSnapshot{o.run.Metrics}
	case o.dep != nil:
		return []cityhunter.MetricsSnapshot{o.dep.Metrics}
	}
	var out []cityhunter.MetricsSnapshot
	for _, r := range o.camp.Results {
		if r != nil {
			out = append(out, r.Metrics)
		}
	}
	return out
}

// results are the per-site (per-spec) results of an operation.
func (o *outcome) results() []*cityhunter.Result {
	switch {
	case o.run != nil:
		return []*cityhunter.Result{o.run}
	case o.dep != nil:
		return o.dep.Sites
	}
	return o.camp.Results
}

// engines counts the distinct City-Hunter engines the operation seeded.
func (o *outcome) engines() int {
	seen := map[any]bool{}
	for _, r := range o.results() {
		if r != nil && r.Engine != nil {
			seen[r.Engine] = true
		}
	}
	return len(seen)
}

// canteenOutcomes are the phones of the operation's canteen lunch run.
func (o *outcome) canteenOutcomes() []cityhunter.Outcome {
	for _, r := range o.results() {
		if r != nil && r.Venue == cityhunter.CanteenVenue().Name && r.Slot == cityhunter.LunchSlot {
			return r.Outcomes
		}
	}
	return nil
}

// sum adds a metric over every label set of every snapshot; peak takes the
// largest value instead, for high-water-mark gauges.
func sum(snaps []cityhunter.MetricsSnapshot, name string) float64 {
	t := 0.0
	for _, s := range snaps {
		for _, p := range s {
			if p.Name == name {
				t += p.Value
			}
		}
	}
	return t
}

func peak(snaps []cityhunter.MetricsSnapshot, name string) float64 {
	m := 0.0
	for _, s := range snaps {
		for _, p := range s {
			if p.Name == name {
				m = max(m, p.Value)
			}
		}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts reports the work counts of one traced operation; they are
// deterministic, so any traced operation gives the same.
func layerCounts(rep *report, o *outcome) {
	snaps := o.snapshots()
	events := sum(snaps, "sim_events_executed")
	rep.set("sim.events", events)
	rep.set("sim.ns_per_event", ratio(rep.value("scenario.event_loop_s")*1e9, events))
	rep.set("sim.queue_depth_hwm", peak(snaps, "sim_queue_depth_hwm"))

	sent, delivered := sum(snaps, "medium_frames_sent"), sum(snaps, "medium_frames_delivered")
	rep.set("medium.frames_sent", sent)
	rep.set("medium.frames_delivered", delivered)
	rep.set("medium.fanout", ratio(delivered, sent))

	replies, responses := sum(snaps, "core_broadcast_replies"), sum(snaps, "attack_probe_responses_sent")
	hits := sum(snaps, "core_hits")
	rep.set("core.broadcast_replies", replies)
	rep.set("attack.probe_responses_sent", responses)
	rep.set("core.responses_per_reply", ratio(responses, replies))
	rep.set("core.hits", hits)
	rep.set("core.hit_ratio", ratio(hits, responses))
	rep.set("core.tracks", sum(snaps, "core_tracks"))
	rep.set("core.relinks", sum(snaps, "core_relinks"))

	var promotions, demotions, promotedPeak, roams float64
	if d := o.dep; d != nil {
		roams = float64(d.Roams)
		if ff := d.FarField; ff != nil {
			promotions, demotions, promotedPeak = float64(ff.Promotions), float64(ff.Demotions), float64(ff.PeakPromoted)
		}
	}
	rep.set("lod.promotions", promotions)
	rep.set("lod.demotions", demotions)
	rep.set("lod.promoted_peak", promotedPeak)
	rep.set("scenario.roams", roams)
	rep.set("core.engines_per_op", float64(o.engines()))
}

// layerFixtures times the layers the event loop hides, each from the
// workload's own world and venues: the world build, knowledge seeding, the
// medium's broadcast fan-out and the engine's broadcast reply.
func layerFixtures(rep *report, o options, world *cityhunter.World, s seeds, out *outcome, cpu float64) error {
	build, err := worldBuild(o.wl, s, o.layerReps)
	if err != nil {
		return err
	}
	for _, name := range []string{"citygen.generate_s", "heatmap.from_photos_s", "pnl.new_model_s", "wigle.sample_s"} {
		rep.setSampled(name, build[name])
	}

	newEngine, nearest, err := seeding(world, o.wl.venues(), s.run, o.layerReps)
	if err != nil {
		return err
	}
	var all []float64
	seedCPU := 0.0 // seconds of seeding in one operation on this world
	enginesPerVenue := rep.value("core.engines_per_op") / float64(len(newEngine))
	for _, t := range newEngine {
		all = append(all, t...)
		seedCPU += enginesPerVenue * medianOf(t)
	}
	rep.setSampled("core.new_engine_s", all)
	rep.setSampled("wigle.nearest_ssids_s", nearest)
	rep.set("core.seed_share", seedCPU/cpu)

	canteen := cityhunter.CanteenVenue()
	stations := max(2, peakConcurrent(out.canteenOutcomes()))
	bcast, err := mediumBroadcast(canteen, stations, o.mediumSamples, s.run)
	if err != nil {
		return err
	}
	rep.setSampled("medium.broadcast_ns", bcast)
	fresh, repeat, err := broadcastReplies(world, canteen, s.run, o.replyClients)
	if err != nil {
		return err
	}
	rep.setSampled("core.broadcast_reply_ns", fresh)
	rep.setSampled("core.broadcast_reply_repeat_ns", repeat)
	return nil
}
