package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cityhunter"
)

// opKind is the public entry point an operation goes through.
type opKind int

const (
	singleRun  opKind = iota // World.RunContext
	campaign                 // World.RunCampaign
	deployment               // World.DeploySitesContext
)

// size is the amount of simulated work in one operation.
type size struct {
	// minutes is the virtual time of each run (of each spec on a campaign).
	minutes time.Duration
	// pedestrians is the far-field population of the city workloads.
	pedestrians int
}

// workload is one set of inputs the benchmark runs, closed loop: one
// operation at a time, back to back.
type workload struct {
	name, why string
	kind      opKind
	// worlds is how many worlds, each from its own seed, one invocation
	// cycles its operations over. How much work an operation does depends
	// on the world (the seeding query's cost on where the venues' nearest
	// open networks lie, above all), so spreading every invocation over
	// several worlds keeps its median from hinging on one world's layout.
	worlds      int
	cityScale   bool // CityScaleCityConfig world instead of the default one
	partitioned bool // WithPartitions(AutoPartitions)
	size        size
}

// Campaign grid shape: Figure 5's four venues at four of its slots.
var (
	gridSlots        = []int{cityhunter.MorningRushSlot, cityhunter.LunchSlot, 7, cityhunter.EveningRushSlot}
	gridArrivalScale = 0.4
)

const (
	roamFraction = 0.3
	lodRadius    = 80.0
)

// workloads lists the benchmark's workloads. The why lines are what
// BENCHMARK.json records.
var workloads = []workload{
	{
		name:   "canteen_hour",
		why:    "one long canteen City-Hunter run: bound by the event loop, with seeding ~3%; bypasses seed caches, LoD, partitions and the campaign pool",
		kind:   singleRun,
		worlds: 8,
		size:   size{minutes: 30 * time.Minute},
	},
	{
		name:   "campaign_grid",
		why:    "4 venues x 4 slots of short runs on the campaign pool, half with per-scan MAC randomization and the composite linker: bound by engine seeding",
		kind:   campaign,
		worlds: 32,
		size:   size{minutes: 2 * time.Minute},
	},
	{
		name:      "city_serial",
		why:       "three sites in the city-scale world with 10k far-field pedestrians and roaming on the serial engine: LoD spawn, 3-site medium load",
		kind:      deployment,
		worlds:    2,
		cityScale: true,
		size:      size{minutes: 30 * time.Minute, pedestrians: 10_000},
	},
	{
		name:        "city_partitioned",
		why:         "city_serial's inputs on the partitioned engine: the only workload running sim.Partitioned and the partitioned LoD tier manager",
		kind:        deployment,
		worlds:      2,
		cityScale:   true,
		partitioned: true,
		size:        size{minutes: 30 * time.Minute, pedestrians: 10_000},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// counterpart is the same inputs on the other deployment engine; it exists
// only for the city workloads, whose serial/partitioned wall ratio is the
// partition speedup.
func (w workload) counterpart() (workload, bool) {
	if w.kind != deployment {
		return workload{}, false
	}
	c := w
	c.partitioned = !w.partitioned
	return c, true
}

// seeds are the seeds of one world and the runs made on it.
type seeds struct {
	world, run int64
}

// deriveSeeds derives the seeds of an invocation's n worlds from its --seed;
// distinct --seed values get disjoint worlds.
func deriveSeeds(seed int64, n int) []seeds {
	out := make([]seeds, n)
	for j := range out {
		w := seed*int64(n) + int64(j)
		out[j] = seeds{world: w, run: 1000 + w}
	}
	return out
}

// cityConfig is the citygen configuration NewWorld receives.
func (w workload) cityConfig(s seeds) cityhunter.CityConfig {
	if w.cityScale {
		return cityhunter.CityScaleCityConfig(s.world)
	}
	return cityhunter.DefaultCityConfig(s.world)
}

func (w workload) newWorld(s seeds) (*cityhunter.World, error) {
	return cityhunter.NewWorld(cityhunter.WithSeed(s.world), cityhunter.WithCityConfig(w.cityConfig(s)))
}

// venues are the sites whose attackers one operation seeds, in order.
func (w workload) venues() []cityhunter.Venue {
	switch w.kind {
	case campaign:
		return cityhunter.AllVenues()
	case deployment:
		return []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()}
	default:
		return []cityhunter.Venue{cityhunter.CanteenVenue()}
	}
}

// workers is the campaign pool size: one per CPU the process may use.
func workers() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// outcome is what one operation returned; exactly one field is set.
type outcome struct {
	run  *cityhunter.Result
	dep  *cityhunter.DeploymentResult
	camp *cityhunter.CampaignResult
	// specs is the campaign size, for the Completed check.
	specs int
}

// opTrace is a traced operation's span record: one runSpans per run the
// operation made (one for a run or deployment, one per campaign spec).
type opTrace struct {
	runs []*runSpans
	end  time.Time // when the entry point returned
}

func (t *opTrace) markEnd() {
	if t != nil {
		t.end = time.Now()
	}
}

// phases sums the phases of the operation's runs; for a campaign that is
// worker time, not wall time. It also returns the runs' summed spans.
func (t *opTrace) phases() (sum phases, spans time.Duration) {
	for _, r := range t.runs {
		// A run or deployment ends when its entry point returns; a
		// campaign's specs (the only operations with several runs) each
		// end at their FinishRun.
		end := t.end
		if len(t.runs) > 1 {
			end = r.finished
		}
		p := r.split(end)
		sum = sum.add(p)
		spans += p.total()
	}
	return sum, spans
}

// runOp performs one operation. With tr non-nil the operation is traced:
// metrics are on and every run publishes into its own runSpans.
func (w workload) runOp(ctx context.Context, world *cityhunter.World, s seeds, tr *opTrace) (*outcome, error) {
	switch w.kind {
	case singleRun:
		opts := []cityhunter.RunOption{cityhunter.WithRunSeed(s.run)}
		if tr != nil {
			sp := &runSpans{began: time.Now()}
			tr.runs = []*runSpans{sp}
			opts = append(opts, cityhunter.WithMetrics(), cityhunter.WithPublisher(sp))
		}
		res, err := world.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter,
			cityhunter.LunchSlot, w.size.minutes, opts...)
		tr.markEnd()
		return &outcome{run: res}, err

	case campaign:
		specs := w.gridSpecs()
		if tr != nil {
			tr.runs = make([]*runSpans, len(specs))
			for i := range specs {
				sp := &runSpans{}
				tr.runs[i] = sp
				// Configure runs on the pool worker just before the spec's
				// run starts, so it marks where the spec's span begins.
				specs[i].Configure = func(cfg *cityhunter.RunConfig) {
					sp.began = time.Now()
					cityhunter.ApplyOptions(cfg, cityhunter.WithMetrics(), cityhunter.WithPublisher(sp))
				}
			}
		}
		res, err := world.RunCampaign(ctx, specs, cityhunter.CampaignPool{Workers: workers()})
		tr.markEnd()
		return &outcome{camp: res, specs: len(specs)}, err

	default:
		runOpts := []cityhunter.RunOption{cityhunter.WithRunSeed(s.run)}
		if tr != nil {
			sp := &runSpans{began: time.Now()}
			tr.runs = []*runSpans{sp}
			runOpts = append(runOpts, cityhunter.WithMetrics(), cityhunter.WithPublisher(sp))
		}
		opts := []cityhunter.DeployOption{
			cityhunter.WithPopulationScale(w.size.pedestrians),
			cityhunter.WithLODRadius(lodRadius),
			cityhunter.WithCityRoutes(world.City.RouteStops()),
			cityhunter.WithRoaming(roamFraction),
			cityhunter.WithRunOptions(runOpts...),
		}
		if w.partitioned {
			opts = append(opts, cityhunter.WithPartitions(cityhunter.AutoPartitions))
		}
		res, err := world.DeploySitesContext(ctx, w.venues(), cityhunter.CityHunter,
			cityhunter.LunchSlot, w.size.minutes, opts...)
		tr.markEnd()
		return &outcome{dep: res}, err
	}
}

// gridSpecs is the campaign grid. Specs leave Seed unset, so each derives
// its seed from the world seed and its index.
func (w workload) gridSpecs() []cityhunter.RunSpec {
	one := 1.0
	var specs []cityhunter.RunSpec
	for vi, v := range cityhunter.AllVenues() {
		for si, slot := range gridSlots {
			spec := cityhunter.RunSpec{
				Name:         fmt.Sprintf("%s/slot%d", v.Name, slot),
				Venue:        v,
				Attack:       cityhunter.CityHunter,
				Slot:         slot,
				Duration:     w.size.minutes,
				ArrivalScale: &gridArrivalScale,
			}
			if (vi+si)%2 == 1 {
				spec.RandomizeMACFraction = &one
				spec.Randomization = "per-scan"
				spec.Linker = "composite"
			}
			specs = append(specs, spec)
		}
	}
	return specs
}
