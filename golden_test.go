// Golden-equivalence tests: the seed-1 outputs captured before the
// scenario.Runner decomposition (testdata/golden/*) must stay byte-identical
// through any refactor of the run path. Four surfaces are pinned, each at
// worker counts 1 and 8 where a pool is involved:
//
//   - the reduced-scale experiments grid (Figures 5+6 rendering),
//   - campaign mode (per-spec rows plus the aggregate line, as the CLI
//     prints them),
//   - the sha256 of a single-run pcap capture,
//   - multi-site deployments on the serial and the partitioned engine.
//
// Regenerate with `go test -run TestGolden -update` ONLY when an
// intentional behaviour change is being made; a refactor must never need it.
package cityhunter_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/experiments"
	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from current behaviour")

const goldenDir = "testdata/golden"

// checkGolden compares got against the named golden file, rewriting it in
// -update mode.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestGolden -update`): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from pre-refactor golden.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// goldenOptions is the reduced-scale harness configuration every golden
// capture uses: small enough to run in test time, large enough that hits
// occur and every layer is exercised.
func goldenOptions(workers int) experiments.Options {
	return experiments.Options{
		SlotDuration: 2 * time.Minute,
		ArrivalScale: 0.5,
		Pool:         cityhunter.CampaignPool{Workers: workers},
	}
}

// TestGoldenExperimentsGrid pins the Figure 5/6 grid rendering at worker
// counts 1 and 8 — both must match the same golden file, which also proves
// the grid is byte-identical across pool sizes.
func TestGoldenExperimentsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid golden is not -short friendly")
	}
	world := apiWorld(t)
	for _, workers := range []int{1, 8} {
		grid, err := experiments.Grid(context.Background(), world, goldenOptions(workers))
		if err != nil {
			t.Fatalf("grid (workers=%d): %v", workers, err)
		}
		out := grid.Figure5() + grid.Figure6()
		checkGolden(t, "grid_seed1.txt", out)
	}
}

// goldenCampaignJSON is the campaign-mode capture: a hand-written spec file
// exercising the by-name venue references and the declarative knobs.
const goldenCampaignJSON = `{
  "runs": [
    {"name": "lunch canteen", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 3},
    {"name": "rush passage", "venue": "passage", "attack": "cityhunter", "slot": 0, "minutes": 3},
    {"name": "mana mall", "venue": "mall", "attack": "mana", "slot": 6, "minutes": 3, "arrivalScale": 0.5}
  ]
}`

// TestGoldenCampaign pins campaign mode: per-spec result rows and the
// aggregate line, rendered the way cmd/cityhunter-sim prints them, at worker
// counts 1 and 8.
func TestGoldenCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign golden is not -short friendly")
	}
	world := apiWorld(t)
	specs, err := cityhunter.LoadCampaign(strings.NewReader(goldenCampaignJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		res, err := world.RunCampaign(context.Background(), specs, cityhunter.CampaignPool{Workers: workers})
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		var b strings.Builder
		for i, spec := range specs {
			r := res.Results[i]
			fmt.Fprintf(&b, "%-24s %s at the %s, %s: %v\n",
				spec.Name, r.Attack, r.Venue, r.SlotLabel, r.Tally)
		}
		b.WriteString(res.Aggregate.String() + "\n")
		checkGolden(t, "campaign_seed1.txt", b.String())
	}
}

// TestGoldenPcapSHA256 pins the sha256 of a single-run frame capture: any
// change to frame generation, delivery order or pcap encoding on the
// single-venue path shows up here.
func TestGoldenPcapSHA256(t *testing.T) {
	if testing.Short() {
		t.Skip("pcap golden is not -short friendly")
	}
	world := apiWorld(t)
	res, err := world.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 3*time.Minute, cityhunter.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x  canteen-cityhunter-slot4-3min-seed1.pcap\n", sha256.Sum256(buf.Bytes()))
	checkGolden(t, "pcap_seed1.sha256", sum)
}

// goldenTrio is the deployment golden's three-site layout: the canteen,
// the passage pulled 400 m east and the mall 450 m away, so roaming phones
// complete transits inside a short run and every pair of radio ranges and
// promotion boundaries is disjoint — the precondition of the partitioned
// engine, which runs the same inputs.
func goldenTrio() []cityhunter.Venue {
	canteen := cityhunter.CanteenVenue()
	passage := cityhunter.PassageVenue()
	passage.Position = canteen.Position.Add(geo.Pt(400, 0))
	mall := cityhunter.MallVenue()
	mall.Position = canteen.Position.Add(geo.Pt(200, 400))
	return []cityhunter.Venue{canteen, passage, mall}
}

// goldenFarField routes a few hundred far-field pedestrians between short
// dwells at every site and one district away from all of them, so
// itineraries promote and demote at several boundaries within the run.
func goldenFarField(sites []cityhunter.Venue) cityhunter.FarFieldConfig {
	home := sites[0].Position
	brief := mobility.StaticDwell{Median: 2 * time.Minute, Sigma: 0.5, Max: 6 * time.Minute}
	stops := []cityhunter.RouteStop{{Pos: home.Add(geo.Pt(-900, 0)), Radius: 100, Weight: 1, Dwell: brief}}
	for _, s := range sites {
		stops = append(stops, cityhunter.RouteStop{Pos: s.Position, Radius: 30, Weight: 1, Dwell: brief})
	}
	return cityhunter.FarFieldConfig{
		Pedestrians: 300,
		Stops:       stops,
		Entry:       geo.NewRect(home.Add(geo.Pt(-600, -600)), home.Add(geo.Pt(-400, -400))),
	}
}

// renderDeployment is the deployment golden's text form: per site the
// tally, attacker report, victims and linker report; then the pooled
// tally, roams, the full far-field accounting, and one sha256 over every
// outcome list (per site, pooled, far field).
func renderDeployment(res *cityhunter.DeploymentResult) string {
	var b strings.Builder
	h := sha256.New()
	writeOutcomes := func(label string, outcomes []cityhunter.Outcome) {
		fmt.Fprintf(h, "%s %d\n", label, len(outcomes))
		for _, o := range outcomes {
			fmt.Fprintf(h, "%+v\n", o)
		}
	}
	for i, s := range res.Sites {
		fmt.Fprintf(&b, "site %d %s %s %s %v: %v\n", i, s.Venue, s.Attack, s.SlotLabel, s.Duration, s.Tally)
		fmt.Fprintf(&b, "  report %+v\n", s.Report)
		for _, v := range s.Victims {
			fmt.Fprintf(&b, "  victim %s %q at %v direct=%t\n", v.MAC, v.SSID, v.At, v.DirectProber)
		}
		if s.Links != nil {
			fmt.Fprintf(&b, "  links %+v\n", *s.Links)
		}
		writeOutcomes(fmt.Sprintf("site %d", i), s.Outcomes)
	}
	fmt.Fprintf(&b, "pooled %v\n", res.Tally)
	fmt.Fprintf(&b, "knowledge %v roams %d duration %v\n", res.Knowledge, res.Roams, res.Duration)
	writeOutcomes("pooled", res.Outcomes)
	if ff := res.FarField; ff != nil {
		fmt.Fprintf(&b, "farfield pedestrians=%d promoted=%d promotions=%d demotions=%d peak=%d\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted)
		fmt.Fprintf(&b, "farfield %v\n", ff.Tally)
		for _, s := range ff.Sites {
			fmt.Fprintf(&b, "farfield site %+v\n", s)
		}
		writeOutcomes("farfield", ff.Outcomes)
	}
	fmt.Fprintf(&b, "outcomes sha256 %x\n", h.Sum(nil))
	return b.String()
}

// TestGoldenDeployment pins the deployment surface through the public
// DeploySites API:
//
//   - a serial three-site roaming run on the periodic-sync knowledge plane
//     with a far-field population;
//   - the same inputs on the partitioned engine at one, two and one-per-site
//     partitions, all against one golden file;
//   - a serial two-site run with per-scan MAC randomization and the
//     composite linker.
func TestGoldenDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment golden is not -short friendly")
	}
	world := apiWorld(t)
	sites := goldenTrio()
	trio := func(extra ...cityhunter.DeployOption) string {
		t.Helper()
		opts := append([]cityhunter.DeployOption{
			cityhunter.WithRunOptions(cityhunter.WithRunSeed(1), cityhunter.WithArrivalScale(0.5)),
			cityhunter.WithKnowledgePlane(cityhunter.PeriodicSync),
			cityhunter.WithRoaming(0.5),
			cityhunter.WithFarField(goldenFarField(sites)),
		}, extra...)
		res, err := world.DeploySites(sites, cityhunter.CityHunter, cityhunter.LunchSlot, 20*time.Minute, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return renderDeployment(res)
	}

	t.Run("serial", func(t *testing.T) {
		checkGolden(t, "deployment_serial_seed1.txt", trio())
	})
	t.Run("partitioned", func(t *testing.T) {
		for _, parts := range []int{1, 2, cityhunter.AutoPartitions} {
			checkGolden(t, "deployment_partitioned_seed1.txt", trio(cityhunter.WithPartitions(parts)))
		}
	})
	t.Run("randomized", func(t *testing.T) {
		res, err := world.DeploySites(sites[:2], cityhunter.CityHunter, cityhunter.LunchSlot, 10*time.Minute,
			cityhunter.WithRunOptions(
				cityhunter.WithRunSeed(1),
				cityhunter.WithArrivalScale(0.5),
				cityhunter.WithMACRandomization(1, cityhunter.RandomizePerScan),
				cityhunter.WithLinker(cityhunter.LinkerComposite),
			),
			cityhunter.WithRoaming(0.5),
		)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "deployment_randomized_seed1.txt", renderDeployment(res))
	})
}
