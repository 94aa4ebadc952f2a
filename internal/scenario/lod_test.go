package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
	"cityhunter/internal/sim"
)

// farFieldConfig routes a small far-field population straight through the
// deployment's first site: one district centred on the attacker, tight
// enough that every dwell falls inside the promotion boundary.
func farFieldConfig(d DeploymentConfig, pedestrians int) *FarFieldConfig {
	site := d.Sites[0]
	return &FarFieldConfig{
		Pedestrians: pedestrians,
		Stops: []mobility.RouteStop{
			{Pos: site.Position, Radius: 30, Weight: 1},
			{Pos: site.Position.Add(geo.Pt(900, 0)), Radius: 100, Weight: 1},
		},
		Entry: geo.NewRect(site.Position.Add(geo.Pt(-600, -600)), site.Position.Add(geo.Pt(-400, -400))),
	}
}

func TestFarFieldValidation(t *testing.T) {
	good := deployConfig(t, CityHunter, 21)
	good.FarField = farFieldConfig(good, 10)
	if _, err := RunDeployment(good, 0, time.Minute); err != nil {
		t.Fatalf("valid far-field config rejected: %v", err)
	}

	bad := good
	bad.FarField = &FarFieldConfig{Pedestrians: -1}
	if _, err := RunDeployment(bad, 0, time.Minute); err == nil {
		t.Error("negative population accepted")
	}
	bad = good
	bad.FarField = &FarFieldConfig{Pedestrians: 1, Radius: -5}
	if _, err := RunDeployment(bad, 0, time.Minute); err == nil {
		t.Error("negative promotion radius accepted")
	}
	bad = good
	bad.FarField = &FarFieldConfig{
		Pedestrians: 1,
		Route:       mobility.RouteModel{Transit: mobility.TransitModel{SpeedMin: 2, SpeedMax: 1}},
	}
	if _, err := RunDeployment(bad, 0, time.Minute); err == nil {
		t.Error("invalid route model accepted")
	}
}

func TestFarFieldPromotionLifecycle(t *testing.T) {
	d := deployConfig(t, CityHunter, 22)
	d.FarField = farFieldConfig(d, 40)
	res, err := RunDeployment(d, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ff := res.FarField
	if ff == nil {
		t.Fatal("no far-field result")
	}
	if ff.Pedestrians != 40 {
		t.Errorf("pedestrians = %d, want 40", ff.Pedestrians)
	}
	// The first district sits inside the promotion boundary, so pedestrians
	// whose itineraries started within the half-hour promoted.
	if ff.Promoted == 0 {
		t.Fatal("no pedestrian was ever promoted")
	}
	if ff.Promotions < ff.Promoted {
		t.Errorf("promotions %d below distinct promoted %d", ff.Promotions, ff.Promoted)
	}
	if ff.Demotions > ff.Promotions {
		t.Errorf("demotions %d exceed promotions %d", ff.Demotions, ff.Promotions)
	}
	if ff.PeakPromoted < 1 {
		t.Errorf("peak promoted = %d, want >= 1", ff.PeakPromoted)
	}
	if len(ff.Outcomes) != ff.Promoted {
		t.Errorf("%d outcomes for %d promoted pedestrians", len(ff.Outcomes), ff.Promoted)
	}
	probed := 0
	for _, o := range ff.Outcomes {
		if o.Probed {
			probed++
		}
	}
	if probed == 0 {
		t.Error("no promoted pedestrian ever probed")
	}
	if len(ff.Sites) != len(d.Sites) {
		t.Fatalf("%d site entries for %d sites", len(ff.Sites), len(d.Sites))
	}
	if ff.Sites[0].Promotions == 0 {
		t.Error("site 0 owns the district but recorded no promotions")
	}
	total := 0
	for _, s := range ff.Sites {
		total += s.Promotions
	}
	if total != ff.Promotions {
		t.Errorf("per-site promotions sum to %d, total %d", total, ff.Promotions)
	}
}

// TestFarFieldDeterminism is the two-runs-identical-aggregates check: the
// far-field tier must be a pure function of its seed.
func TestFarFieldDeterminism(t *testing.T) {
	run := func() *FarFieldResult {
		d := deployConfig(t, CityHunter, 23)
		d.FarField = farFieldConfig(d, 60)
		res, err := RunDeployment(d, 0, 20*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.FarField
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("far-field results differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestFarFieldKeepsOnlyPromotablePedestrians pins what spawn retains. At a
// small promotion radius most itineraries never cross a boundary: spawn
// must keep exactly the pedestrians with promotion windows, each carrying
// the route, flag and stream position a private stream drawn for every
// pedestrian would give it, and a run must still report the configured
// population and promote exactly the kept pedestrians whose first window
// opens within the horizon, identically across same-seed runs.
func TestFarFieldKeepsOnlyPromotablePedestrians(t *testing.T) {
	const n = 400
	horizon := 20 * time.Minute
	d := deployConfig(t, CityHunter, 25)
	d.FarField = &FarFieldConfig{Pedestrians: n, Radius: 20, Seed: 77}
	cfg, err := d.FarField.normalized(d.Sites, 0, d.Base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tm := &tierManager{cfg: cfg}
	for _, v := range d.Sites {
		tm.envs = append(tm.envs, &runEnv{cfg: d.Base, engine: sim.NewEngine()})
		tm.sitePos = append(tm.sitePos, v.Position)
	}
	tm.spawn(horizon)

	// Reference: the spawn that gave every pedestrian a private stream.
	type kept struct {
		id      int
		direct  bool
		route   mobility.Route
		stream  *rand.Rand
		windows []promoWindow
	}
	var want []kept
	spawn := rand.New(rand.NewSource(cfg.Seed))
	for id := 0; id < n; id++ {
		rng := rand.New(rand.NewSource(spawn.Int63()))
		direct := rng.Float64() < d.Base.DirectProberFraction
		arrival := time.Duration(rng.Int63n(int64(horizon)))
		entry := geo.Pt(
			cfg.Entry.Min.X+rng.Float64()*cfg.Entry.Width(),
			cfg.Entry.Min.Y+rng.Float64()*cfg.Entry.Height(),
		)
		route := cfg.Route.Sample(rng, arrival, entry, cfg.Stops)
		if ws := tm.windows(route); len(ws) > 0 {
			want = append(want, kept{id, direct, route, rng, ws})
		}
	}
	if len(want) == 0 || len(want) > n/4 {
		t.Fatalf("%d of %d pedestrians have promotion windows; the test needs a few, not most", len(want), n)
	}
	if len(tm.peds) != len(want) {
		t.Fatalf("spawn kept %d pedestrians, %d have promotion windows", len(tm.peds), len(want))
	}
	events, promotable := 0, 0
	for i, w := range want {
		p := tm.peds[i]
		if p.mac != farFieldMAC(w.id) || p.direct != w.direct || !reflect.DeepEqual(p.route, w.route) {
			t.Fatalf("kept pedestrian %d differs from reference pedestrian %d", i, w.id)
		}
		for k := 0; k < 4; k++ {
			if got, ref := p.rng.Int63(), w.stream.Int63(); got != ref {
				t.Fatalf("pedestrian %d stream draw %d = %d, reference stream %d", w.id, k, got, ref)
			}
		}
		events += 2 * len(w.windows)
		if w.windows[0].start <= horizon {
			promotable++
		}
	}
	for _, env := range tm.envs {
		events -= env.engine.Pending()
	}
	if events != 0 {
		t.Errorf("site engines hold %d events more or fewer than the windows' promotes and demotes", -events)
	}

	run := func() *FarFieldResult {
		res, err := RunDeployment(d, 0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return res.FarField
	}
	ff := run()
	t.Logf("%d of %d pedestrians kept, %d promoted by the horizon", len(want), n, ff.Promoted)
	if ff.Pedestrians != n {
		t.Errorf("reported %d pedestrians, configured %d", ff.Pedestrians, n)
	}
	if ff.Promoted != promotable || len(ff.Outcomes) != promotable {
		t.Errorf("promoted %d with %d outcomes, want the %d kept pedestrians whose first window opens by the horizon",
			ff.Promoted, len(ff.Outcomes), promotable)
	}
	if again := run(); !reflect.DeepEqual(ff, again) {
		t.Errorf("same-seed far-field results differ:\n%+v\n%+v", ff, again)
	}
}

// TestFarFieldAwayFromSitesLeavesVenuesUntouched is the RNG-stream
// preservation proof at test scale: a far-field population whose routes
// never cross a promotion boundary must leave the venue populations'
// results bit-for-bit identical to a run with no far field at all.
func TestFarFieldAwayFromSitesLeavesVenuesUntouched(t *testing.T) {
	run := func(ff *FarFieldConfig) *DeploymentResult {
		d := deployConfig(t, CityHunter, 24)
		d.FarField = ff
		res, err := RunDeployment(d, 0, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	remote := &FarFieldConfig{
		Pedestrians: 500,
		// District and entry live kilometres from every site: windows are
		// empty, nothing ever promotes, nothing touches the medium.
		Stops: []mobility.RouteStop{{Pos: geo.Pt(-20000, -20000), Radius: 300, Weight: 1}},
		Entry: geo.NewRect(geo.Pt(-21000, -21000), geo.Pt(-20500, -20500)),
	}
	lod := run(remote)
	if lod.FarField == nil || lod.FarField.Promoted != 0 {
		t.Fatalf("remote far field promoted %v pedestrians, want 0", lod.FarField)
	}
	if !reflect.DeepEqual(base.Outcomes, lod.Outcomes) {
		t.Error("venue outcomes perturbed by a far field that never promoted")
	}
	if !reflect.DeepEqual(base.Tally, lod.Tally) {
		t.Errorf("venue tally perturbed: %+v vs %+v", base.Tally, lod.Tally)
	}
	for i := range base.Sites {
		if !reflect.DeepEqual(base.Sites[i].Outcomes, lod.Sites[i].Outcomes) {
			t.Errorf("site %d outcomes perturbed", i)
		}
	}
	// Zero pedestrians is an exact no-op too.
	zero := run(&FarFieldConfig{})
	if !reflect.DeepEqual(base.Outcomes, zero.Outcomes) {
		t.Error("zero-pedestrian far field perturbed venue outcomes")
	}
}

// TestFarFieldWindows unit-tests the promotion scheduler's geometry: a
// transit leg clipping a boundary opens a window strictly inside the leg,
// a dwell inside a boundary spans the whole leg, and overlaps merge.
func TestFarFieldWindows(t *testing.T) {
	tm := &tierManager{
		cfg:     FarFieldConfig{Radius: 100},
		sitePos: []geo.Point{geo.Pt(500, 0), geo.Pt(560, 0)},
	}

	// Leg 1: walk 0→1000 along y=0 between minutes 0 and 10, crossing both
	// boundaries; their windows overlap and must merge into one.
	// Leg 2: dwell at (505, 0) — inside site 0's boundary — minutes 10–20.
	route := mobility.Route{Legs: []mobility.RouteLeg{
		{Kind: mobility.LegTransit, From: geo.Pt(0, 0), To: geo.Pt(1000, 0),
			Start: 0, End: 10 * time.Minute, Stop: -1},
		{Kind: mobility.LegDwell, From: geo.Pt(505, 0), To: geo.Pt(505, 0),
			Start: 10 * time.Minute, End: 20 * time.Minute, Stop: 0},
	}}
	ws := tm.windows(route)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (merged transit + dwell): %+v", len(ws), ws)
	}
	// Transit window: site 0's disk spans x ∈ [400, 660] with site 1's —
	// 4 to 6.6 minutes at 100 m/min.
	w := ws[0]
	if w.start != 4*time.Minute || w.end != 396*time.Second {
		t.Errorf("merged transit window [%v, %v], want [4m, 6m36s]", w.start, w.end)
	}
	if w.site != 0 {
		t.Errorf("merged window credited site %d, want 0 (the opener)", w.site)
	}
	if ws[1].start != 10*time.Minute || ws[1].end != 20*time.Minute {
		t.Errorf("dwell window [%v, %v], want the full leg", ws[1].start, ws[1].end)
	}

	// A route that never approaches a site yields no windows.
	far := mobility.Route{Legs: []mobility.RouteLeg{
		{Kind: mobility.LegTransit, From: geo.Pt(0, 5000), To: geo.Pt(1000, 5000),
			Start: 0, End: 10 * time.Minute, Stop: -1},
	}}
	if ws := tm.windows(far); len(ws) != 0 {
		t.Errorf("distant route produced windows: %+v", ws)
	}
}

// TestPromoWindowsProperty checks promotion windows against the routes they
// came from, over seeded random site layouts and itineraries: windows are
// non-empty, sorted and disjoint, and a sampled instant falls inside a
// window exactly when the route's position at that instant lies within the
// promotion radius of some site. Layouts spread stops over kilometres so
// many transit legs run ten radii or more, and the entry area sits apart
// from the sites. Instants whose position is within tol of a boundary are
// skipped: window edges are truncated to whole nanoseconds.
func TestPromoWindowsProperty(t *testing.T) {
	const tol = 1e-3 // metres
	longLegs, inside, outside := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := 40 + 160*rng.Float64()
		sitePos := make([]geo.Point, 1+rng.Intn(5))
		var stops []mobility.RouteStop
		for i := range sitePos {
			sitePos[i] = geo.Pt(4000*rng.Float64()-2000, 4000*rng.Float64()-2000)
			// Some stops sit on a site, some straddle a boundary.
			stops = append(stops, mobility.RouteStop{Pos: sitePos[i], Radius: r * 2 * rng.Float64(), Weight: 1})
		}
		for i := 0; i < 3; i++ {
			stops = append(stops, mobility.RouteStop{
				Pos: geo.Pt(6000*rng.Float64()-3000, 6000*rng.Float64()-3000), Radius: 300, Weight: 1})
		}
		entry := geo.NewRect(geo.Pt(3000, 3000), geo.Pt(4000, 4000)) // clear of every site
		for p := 0; p < 25; p++ {
			from := geo.Pt(entry.Min.X+rng.Float64()*entry.Width(), entry.Min.Y+rng.Float64()*entry.Height())
			route := mobility.DefaultRoute().Sample(rng, time.Duration(rng.Int63n(int64(time.Hour))), from, stops)
			for _, leg := range route.Legs {
				if leg.Kind == mobility.LegTransit && leg.From.Dist(leg.To) >= 10*r {
					longLegs++
				}
			}
			ws := promoWindows(sitePos, r, route)
			for i, w := range ws {
				if w.end <= w.start {
					t.Fatalf("seed %d: empty window %+v", seed, w)
				}
				if i > 0 && w.start <= ws[i-1].end {
					t.Fatalf("seed %d: window %+v overlaps or precedes %+v", seed, w, ws[i-1])
				}
				if w.site < 0 || w.site >= len(sitePos) {
					t.Fatalf("seed %d: window credits site %d of %d", seed, w.site, len(sitePos))
				}
			}
			first, last := route.Legs[0].Start, route.Legs[len(route.Legs)-1].End
			for k := 0; k < 200; k++ {
				at := first + time.Duration(rng.Int63n(int64(last-first)))
				near := math.Inf(1)
				for _, sp := range sitePos {
					near = math.Min(near, route.At(at).Dist(sp))
				}
				if math.Abs(near-r) <= tol {
					continue
				}
				inWindow := false
				for _, w := range ws {
					if w.start <= at && at < w.end {
						inWindow = true
						break
					}
				}
				if inWindow != (near < r) {
					t.Fatalf("seed %d: at %v the route is %.3f m from the nearest site (radius %.1f) but inWindow=%v; windows %+v",
						seed, at, near, r, inWindow, ws)
				}
				if inWindow {
					inside++
				} else {
					outside++
				}
			}
		}
	}
	if longLegs == 0 || inside == 0 || outside == 0 {
		t.Fatalf("layouts too tame: %d legs of ≥ 10 radii, %d samples inside, %d outside", longLegs, inside, outside)
	}
	t.Logf("%d legs of ≥ 10 radii; %d samples inside a window, %d outside", longLegs, inside, outside)
}

// TestFarFieldChurn promotes and demotes the same pedestrians repeatedly —
// a route bouncing between an in-boundary district and an out-of-boundary
// one — and checks the transition accounting stays balanced.
func TestFarFieldChurn(t *testing.T) {
	d := deployConfig(t, CityHunter, 25)
	site := d.Sites[0]
	d.FarField = &FarFieldConfig{
		Pedestrians: 30,
		Stops: []mobility.RouteStop{
			{Pos: site.Position, Radius: 25, Weight: 1},
			{Pos: site.Position.Add(geo.Pt(700, 0)), Radius: 50, Weight: 1},
		},
		Route: mobility.RouteModel{MeanVisits: 4, MaxVisits: 6},
		Entry: geo.NewRect(site.Position.Add(geo.Pt(-400, -400)), site.Position.Add(geo.Pt(-300, -300))),
	}
	res, err := RunDeployment(d, 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ff := res.FarField
	if ff.Promotions <= ff.Promoted {
		t.Errorf("promotions %d vs %d distinct pedestrians: churn never re-promoted anyone",
			ff.Promotions, ff.Promoted)
	}
	if ff.Demotions > ff.Promotions {
		t.Errorf("demotions %d exceed promotions %d", ff.Demotions, ff.Promotions)
	}
	if ff.Promotions-ff.Demotions > ff.Promoted {
		t.Errorf("%d pedestrians stuck promoted, only %d exist",
			ff.Promotions-ff.Demotions, ff.Promoted)
	}
}
