// Command cityhunter-sim runs one attacker deployment and prints the
// result table, the way the paper reports a single field test.
//
// Usage:
//
//	cityhunter-sim [flags]
//
//	-venue    passage|canteen|mall|station   (default canteen)
//	-attack   karma|mana|prelim|cityhunter   (default cityhunter)
//	-slot     hour slot 0..11, 0 = 8am-9am   (default 4 = 12pm-1pm)
//	-minutes  run length                     (default 30)
//	-seed     world seed                     (default 1)
//	-deauth   arm the deauthentication extension
//	-preconnected  fraction of phones arriving connected (default 0)
//	-breakdown     print the Fig.6-style hit breakdown
//	-metrics       print the deterministic metrics dump and journal tail
//	-trace-out F   write a Chrome/Perfetto trace-event JSON file to F
//
// Plan mode: -plan F loads a plan envelope (see cityhunter.SavePlan/
// LoadPlan) and its kind picks what runs:
//
//   - venue: the single run above, at the plan's venue instead of -venue;
//     every single-run flag applies.
//   - deployment: one attacker per site (sites, knowledge plane, roaming
//     model) on a single shared radio medium, printing per-site rows and
//     the pooled tally. -attack, -slot, -minutes, -seed, the population
//     flags and -partitions apply; the single-run output flags (-pcap,
//     -trace-out, -breakdown) do not.
//   - campaign: every declared run over the campaign worker pool;
//     -parallel bounds the pool. Ctrl-C cancels mid-campaign and the
//     completed runs are still reported.
//
// A bare venue, deployment or campaign document becomes a plan by wrapping
// it: {"version":1,"kind":"venue","venue":{...}}.
//
// -population without -plan hunts the default city-scale trio (station,
// canteen, mall) with that many far-field pedestrians. -partitions 0 runs
// a deployment on the conservative parallel engine with one partition per
// site (-partitions N for an explicit count); the default -1 keeps the
// classic serialized engine unless the plan itself asks for partitions.
// -population, -lod-radius and -partitions are refused with a venue or
// campaign plan.
//
// Live monitoring: -monitor ADDR serves read-only telemetry over HTTP for
// the lifetime of the process — Prometheus exposition on /metrics, run
// status JSON on /runs, a live event stream on /events (SSE) and pprof
// under /debug/pprof. Monitoring never perturbs the simulation: results
// are byte-identical with and without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"cityhunter"
	"cityhunter/internal/prof"
	"cityhunter/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cityhunter-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cityhunter-sim", flag.ContinueOnError)
	var (
		venueName    = fs.String("venue", "canteen", "passage|canteen|mall|station")
		attackName   = fs.String("attack", "cityhunter", "karma|mana|prelim|cityhunter|known-beacons")
		slot         = fs.Int("slot", 4, "hour slot 0..11 (0 = 8am-9am)")
		minutes      = fs.Int("minutes", 30, "run length in minutes")
		seed         = fs.Int64("seed", 1, "world seed")
		deauth       = fs.Bool("deauth", false, "arm the deauthentication extension")
		preconnected = fs.Float64("preconnected", 0, "fraction of phones arriving connected to the venue AP")
		breakdown    = fs.Bool("breakdown", false, "print the hit breakdown (City-Hunter only)")
		pcapPath     = fs.String("pcap", "", "capture every frame at the venue into this pcap file")
		loss         = fs.Float64("loss", 0, "independent frame-loss probability (failure injection)")
		canary       = fs.Float64("canary", 0, "fraction of phones running the canary-probe detector")
		randomizeMAC = fs.Float64("randomize-macs", 0, "fraction of phones rotating their probe MAC per scan")
		sentinel     = fs.Bool("sentinel", false, "deploy the passive evil-twin sentinel and report its findings")
		metrics      = fs.Bool("metrics", false, "print the metrics dump and flight-recorder tail after the run")
		traceOut     = fs.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (open in chrome://tracing)")
		planPath     = fs.String("plan", "", "run the plan envelope in this JSON file: a venue (single run), a deployment or a campaign")
		parallel     = fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = serial)")
		population   = fs.Int("population", 0, "far-field pedestrians roaming the city in a deployment run (level-of-detail tier)")
		partitions   = fs.Int("partitions", -1, "conservative parallel deployment engine: 0 = one partition per site, N = explicit count, -1 = serial engine (or the plan's setting)")
		lodRadius    = fs.Float64("lod-radius", 0, "promotion boundary radius in metres around each site (0 = 1.25x the largest radio range)")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		monitorAddr  = fs.String("monitor", "", "serve live telemetry on this address while running (/metrics, /runs, /events, /debug/pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p cityhunter.Plan
	if *planPath != "" {
		var err error
		if p, err = loadPlan(*planPath); err != nil {
			return err
		}
		if p.Kind != cityhunter.KindDeployment {
			// These flags only shape deployments; refuse them rather
			// than ignore them.
			var conflict string
			fs.Visit(func(f *flag.Flag) {
				if conflict == "" && (f.Name == "population" || f.Name == "lod-radius" || f.Name == "partitions") {
					conflict = f.Name
				}
			})
			if conflict != "" {
				return fmt.Errorf("-%s applies to deployment plans only, not to a %s plan", conflict, p.Kind)
			}
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "cityhunter-sim:", perr)
		}
	}()

	var mon *cityhunter.MonitorServer
	if *monitorAddr != "" {
		var bound string
		mon, bound, err = cityhunter.SharedMonitor(*monitorAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "monitor listening on http://%s — try /metrics, /runs, /events (SSE), /debug/pprof\n", bound)
	}

	if p.Kind == cityhunter.KindCampaign {
		return runCampaign(ctx, out, *planPath, p.Specs, *seed, *parallel, mon)
	}

	if p.Kind == cityhunter.KindDeployment || *population > 0 {
		kind, err := attackByName(*attackName)
		if err != nil {
			return err
		}
		var opts []cityhunter.RunOption
		if *loss > 0 {
			opts = append(opts, cityhunter.WithFrameLoss(*loss))
		}
		if *canary > 0 {
			opts = append(opts, cityhunter.WithCanaryClients(*canary))
		}
		if *randomizeMAC > 0 {
			opts = append(opts, cityhunter.WithRandomizedMACs(*randomizeMAC))
		}
		if *deauth {
			opts = append(opts, cityhunter.WithDeauth(*preconnected))
		} else if *preconnected > 0 {
			opts = append(opts, cityhunter.WithPreconnected(*preconnected))
		}
		if mon != nil {
			opts = append(opts, cityhunter.WithMonitorServer(mon))
		}
		parts, err := partitionsFlagValue(*partitions)
		if err != nil {
			return err
		}
		if p.Kind == cityhunter.KindDeployment {
			return runDeployment(ctx, out, *planPath, *p.Deployment, kind, *slot, *minutes, *seed,
				*population, *lodRadius, parts, opts...)
		}
		// -population without a plan: hunt the default city-scale trio
		// (station, canteen, mall) in a synthetic city.
		return runCityScale(ctx, out, kind, *slot, *minutes, *seed,
			*population, *lodRadius, parts, opts...)
	}

	var venue cityhunter.Venue
	if p.Kind == cityhunter.KindVenue {
		venue = *p.Venue
	} else if venue, err = venueByName(*venueName); err != nil {
		return err
	}
	kind, err := attackByName(*attackName)
	if err != nil {
		return err
	}

	world, err := cityhunter.NewWorld(cityhunter.WithSeed(*seed))
	if err != nil {
		return err
	}

	var opts []cityhunter.RunOption
	if *pcapPath != "" {
		opts = append(opts, cityhunter.WithTrace())
	}
	if *loss > 0 {
		opts = append(opts, cityhunter.WithFrameLoss(*loss))
	}
	if *canary > 0 {
		opts = append(opts, cityhunter.WithCanaryClients(*canary))
	}
	if *randomizeMAC > 0 {
		opts = append(opts, cityhunter.WithRandomizedMACs(*randomizeMAC))
	}
	if *sentinel {
		opts = append(opts, cityhunter.WithSentinel())
	}
	if *deauth {
		opts = append(opts, cityhunter.WithDeauth(*preconnected))
	} else if *preconnected > 0 {
		opts = append(opts, cityhunter.WithPreconnected(*preconnected))
	}
	if *metrics {
		opts = append(opts, cityhunter.WithMetrics(), cityhunter.WithFlightRecorder(0))
	}
	if *traceOut != "" {
		opts = append(opts, cityhunter.WithPerfettoTrace())
	}
	if mon != nil {
		opts = append(opts, cityhunter.WithMonitorServer(mon))
	}

	res, err := world.Run(venue, kind, *slot, time.Duration(*minutes)*time.Minute, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s at the %s, %s, %d minutes\n", res.Attack, res.Venue, res.SlotLabel, *minutes)
	fmt.Fprintln(out, res.Tally)
	if res.Report.DeauthsSent > 0 {
		fmt.Fprintf(out, "spoofed deauthentications sent: %d\n", res.Report.DeauthsSent)
	}
	if *pcapPath != "" && res.Trace != nil {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		err = res.Trace.WritePcap(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d captured frames to %s (dropped %d beyond the cap)\n",
			res.Trace.Len(), *pcapPath, res.Trace.Dropped)
		a := trace.Analyze(res.Trace.Entries())
		fmt.Fprintf(out, "capture: %d frames, %d probers (%d direct), probe interval p50=%v p90=%v\n",
			a.Frames, a.Probers, a.DirectProbers,
			a.ProbeIntervalP50.Truncate(time.Millisecond),
			a.ProbeIntervalP90.Truncate(time.Millisecond))
	}
	if res.CanaryDetections > 0 {
		fmt.Fprintf(out, "canary unmaskings by defended phones: %d\n", res.CanaryDetections)
	}
	if *sentinel && res.Sentinel != nil {
		if findings := res.Sentinel.Findings(); len(findings) > 0 {
			f := findings[0]
			fmt.Fprintf(out, "sentinel flagged %v after %v (%d lure SSIDs)\n",
				f.BSSID, f.FlaggedAt.Truncate(time.Millisecond), res.Sentinel.SSIDCount(f.BSSID))
		} else {
			fmt.Fprintln(out, "sentinel flagged nothing")
		}
	}
	if *breakdown && res.Engine != nil {
		b := res.Breakdown()
		fmt.Fprintf(out, "hitting SSIDs: %d from WiGLE, %d harvested, %d carrier\n",
			b.FromWiGLE, b.FromDirect, b.FromCarrier)
		fmt.Fprintf(out, "served by: popularity side %d, freshness side %d\n",
			b.FromPopularity, b.FromFreshness)
	}
	if *traceOut != "" && res.Spans != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = res.Spans.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace events (%s) to %s — open in chrome://tracing or ui.perfetto.dev\n",
			res.Spans.Len(), strings.Join(res.Spans.Categories(), ", "), *traceOut)
	}
	if *metrics && res.Metrics != nil {
		fmt.Fprintln(out, "--- metrics ---")
		if err := res.Metrics.WriteText(out); err != nil {
			return err
		}
		if res.Journal != nil {
			events := res.Journal.Events()
			fmt.Fprintf(out, "--- flight recorder: %d events (%d overwritten) ---\n",
				res.Journal.Len(), res.Journal.Dropped())
			tail := events
			if len(tail) > 10 {
				tail = tail[len(tail)-10:]
			}
			for _, e := range tail {
				fmt.Fprintf(out, "%12s %-12s %-20s %s\n",
					e.At.Truncate(time.Millisecond), e.Type, e.Actor, e.Detail)
			}
		}
	}
	return nil
}

// loadPlan reads the plan envelope at path.
func loadPlan(path string) (cityhunter.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return cityhunter.Plan{}, err
	}
	defer f.Close()
	return cityhunter.LoadPlan(f)
}

// runCampaign fans a campaign plan's runs over the worker pool. Per-run
// rows print in spec order once everything (that was allowed to) finished,
// so output is identical at any -parallel value; progress goes to stderr.
// On cancellation the completed runs still print before the error is
// returned.
func runCampaign(ctx context.Context, out io.Writer, path string, specs []cityhunter.RunSpec, seed int64, parallel int, mon *cityhunter.MonitorServer) error {
	world, err := cityhunter.NewWorld(cityhunter.WithSeed(seed))
	if err != nil {
		return err
	}
	pool := cityhunter.CampaignPool{
		Workers: parallel,
		OnProgress: func(p cityhunter.CampaignProgress) {
			status := "done"
			if p.Err != nil {
				status = p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s: %s\n", p.Done, p.Total, p.Name, status)
		},
	}
	if mon != nil {
		pool.Publisher = mon
		pool.Label = "campaign " + path
	}

	res, runErr := world.RunCampaign(ctx, specs, pool)
	fmt.Fprintf(out, "campaign %s: %d runs, %d completed\n", path, len(specs), res.Completed)
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		if res.Errs[i] != nil {
			fmt.Fprintf(out, "%-24s %s\n", name, res.Errs[i])
			continue
		}
		r := res.Results[i]
		fmt.Fprintf(out, "%-24s %s at the %s, %s: %v\n",
			name, r.Attack, r.Venue, r.SlotLabel, r.Tally)
	}
	fmt.Fprintln(out, res.Aggregate.String())
	return runErr
}

// runDeployment runs a multi-site deployment plan end to end on one shared
// medium, printing the per-site rows followed by the pooled tally that the
// plan's knowledge plane produced.
func runDeployment(ctx context.Context, out io.Writer, path string, dcfg cityhunter.DeploymentConfig,
	kind cityhunter.AttackKind, slot, minutes int, seed int64, population int, lodRadius float64,
	partitions int, opts ...cityhunter.RunOption) error {
	if partitions != 0 {
		// The flag overrides whatever the plan carries; 0 (the
		// mapped form of -partitions -1) keeps the plan's setting.
		dcfg.Partitions = partitions
	}

	world, err := cityhunter.NewWorld(cityhunter.WithSeed(seed))
	if err != nil {
		return err
	}
	if population > 0 {
		dcfg.FarField = &cityhunter.FarFieldConfig{
			Pedestrians: population,
			Radius:      lodRadius,
			Stops:       world.City.RouteStops(),
		}
	}
	res, err := world.RunDeployment(ctx, dcfg, kind, slot, time.Duration(minutes)*time.Minute, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "deployment %s: %d sites, %s knowledge plane, %d roams\n",
		path, len(res.Sites), res.Knowledge, res.Roams)
	for _, r := range res.Sites {
		fmt.Fprintf(out, "%-24s %s, %s: %v\n", r.Venue, r.Attack, r.SlotLabel, r.Tally)
	}
	fmt.Fprintf(out, "pooled: %v\n", res.Tally)
	if ff := res.FarField; ff != nil {
		fmt.Fprintf(out, "far field: %d pedestrians, %d promoted (%d promotions, %d demotions, peak %d), %v\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted, ff.Tally)
		for i, s := range ff.Sites {
			fmt.Fprintf(out, "  site %-18s %d promotions, %d hits\n", res.Sites[i].Venue+":", s.Promotions, s.Hits)
		}
	}
	return nil
}

// runCityScale is the no-plan deployment path: -population with no -plan
// hunts the default city-scale trio (station, canteen, mall) embedded in
// the synthetic dozen-district city, mirroring the examples/city-scale
// walkthrough so a one-liner exercises the level-of-detail tier (and, with
// -monitor, lights up the telemetry plane).
func runCityScale(ctx context.Context, out io.Writer, kind cityhunter.AttackKind,
	slot, minutes int, seed int64, population int, lodRadius float64, partitions int,
	opts ...cityhunter.RunOption) error {
	world, err := cityhunter.NewWorld(
		cityhunter.WithSeed(seed),
		cityhunter.WithCityConfig(cityhunter.CityScaleCityConfig(seed)),
	)
	if err != nil {
		return err
	}
	sites := []cityhunter.Venue{
		cityhunter.StationVenue(),
		cityhunter.CanteenVenue(),
		cityhunter.MallVenue(),
	}
	if lodRadius == 0 {
		lodRadius = 80
	}
	stops := world.City.RouteStops()
	fmt.Fprintf(out, "city-scale deployment: %d sites, %d districts, %d far-field pedestrians\n",
		len(sites), len(stops), population)

	res, err := world.DeploySitesContext(ctx, sites, kind, slot,
		time.Duration(minutes)*time.Minute,
		cityhunter.WithPopulationScale(population),
		cityhunter.WithLODRadius(lodRadius),
		cityhunter.WithCityRoutes(stops),
		cityhunter.WithPartitions(partitions),
		cityhunter.WithRunOptions(opts...))
	if err != nil {
		return err
	}

	for _, r := range res.Sites {
		fmt.Fprintf(out, "%-24s %s, %s: %v\n", r.Venue, r.Attack, r.SlotLabel, r.Tally)
	}
	fmt.Fprintf(out, "pooled: %v\n", res.Tally)
	if ff := res.FarField; ff != nil {
		fmt.Fprintf(out, "far field: %d pedestrians, %d promoted (%d promotions, %d demotions, peak %d), %v\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted, ff.Tally)
		for i, s := range ff.Sites {
			fmt.Fprintf(out, "  site %-18s %d promotions, %d hits\n", res.Sites[i].Venue+":", s.Promotions, s.Hits)
		}
	}
	return nil
}

// partitionsFlagValue maps the -partitions flag onto the DeploymentConfig
// field. The flag default -1 means "don't override" (classic engine, or
// whatever the plan says) and maps to 0; flag 0 asks for one partition
// per site and maps to AutoPartitions; a positive flag is an explicit count.
func partitionsFlagValue(flag int) (int, error) {
	switch {
	case flag < -1:
		return 0, fmt.Errorf("-partitions %d invalid: use -1 (serial), 0 (one per site), or a positive count", flag)
	case flag == -1:
		return 0, nil
	case flag == 0:
		return cityhunter.AutoPartitions, nil
	default:
		return flag, nil
	}
}

func venueByName(name string) (cityhunter.Venue, error) {
	switch strings.ToLower(name) {
	case "passage", "subway":
		return cityhunter.PassageVenue(), nil
	case "canteen":
		return cityhunter.CanteenVenue(), nil
	case "mall", "shopping":
		return cityhunter.MallVenue(), nil
	case "station", "railway":
		return cityhunter.StationVenue(), nil
	default:
		return cityhunter.Venue{}, fmt.Errorf("unknown venue %q", name)
	}
}

func attackByName(name string) (cityhunter.AttackKind, error) {
	switch strings.ToLower(name) {
	case "karma":
		return cityhunter.KARMA, nil
	case "mana":
		return cityhunter.MANA, nil
	case "prelim", "preliminary":
		return cityhunter.CityHunterPreliminary, nil
	case "cityhunter", "city-hunter", "full":
		return cityhunter.CityHunter, nil
	case "beacons", "known-beacons":
		return cityhunter.KnownBeacons, nil
	default:
		return 0, fmt.Errorf("unknown attack %q", name)
	}
}
