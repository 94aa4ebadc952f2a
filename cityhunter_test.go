package cityhunter_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cityhunter"
)

var (
	apiWorldOnce sync.Once
	apiWorldVal  *cityhunter.World
	apiWorldErr  error
)

// apiWorld shares one default world across the API tests.
func apiWorld(t *testing.T) *cityhunter.World {
	t.Helper()
	apiWorldOnce.Do(func() {
		apiWorldVal, apiWorldErr = cityhunter.NewWorld(cityhunter.WithSeed(3))
	})
	if apiWorldErr != nil {
		t.Fatalf("NewWorld: %v", apiWorldErr)
	}
	return apiWorldVal
}

func TestNewWorldDefault(t *testing.T) {
	w := apiWorld(t)
	if w.City == nil || w.Heat == nil || w.PNL == nil || w.WiGLE == nil {
		t.Fatal("world has nil components")
	}
	if w.Seed() != 3 {
		t.Errorf("Seed = %d", w.Seed())
	}
	if w.WiGLE.Len() >= w.City.DB.Len() {
		t.Errorf("WiGLE snapshot (%d) should be smaller than the city DB (%d)",
			w.WiGLE.Len(), w.City.DB.Len())
	}
}

func TestNewWorldPerfectWiGLE(t *testing.T) {
	w, err := cityhunter.NewWorld(cityhunter.WithSeed(3), cityhunter.WithPerfectWiGLE())
	if err != nil {
		t.Fatal(err)
	}
	if w.WiGLE.Len() != w.City.DB.Len() {
		t.Errorf("perfect WiGLE (%d) != city DB (%d)", w.WiGLE.Len(), w.City.DB.Len())
	}
}

func TestNewWorldBadOptions(t *testing.T) {
	if _, err := cityhunter.NewWorld(cityhunter.WithWiGLEGaps(2, 0)); err == nil {
		t.Error("bad gap probability accepted")
	}
	if _, err := cityhunter.NewWorld(cityhunter.WithHeatCellSize(-1)); err == nil {
		t.Error("negative heat cell accepted")
	}
	bad := cityhunter.PNLConfig{CarrierFraction: 5}
	if _, err := cityhunter.NewWorld(cityhunter.WithPNLConfig(bad)); err == nil {
		t.Error("bad PNL config accepted")
	}
}

func TestRunBasic(t *testing.T) {
	w := apiWorld(t)
	res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 5*time.Minute, cityhunter.WithArrivalScale(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total == 0 {
		t.Error("no clients heard")
	}
	if res.Engine == nil {
		t.Error("no engine exposed")
	}
	if res.SlotLabel != "12pm-1pm" {
		t.Errorf("SlotLabel = %q", res.SlotLabel)
	}
	if !strings.Contains(res.Attack, "City-Hunter") {
		t.Errorf("Attack = %q", res.Attack)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	w := apiWorld(t)
	run := func() *cityhunter.Result {
		res, err := w.Run(cityhunter.PassageVenue(), cityhunter.CityHunter,
			cityhunter.MorningRushSlot, 4*time.Minute,
			cityhunter.WithArrivalScale(0.4), cityhunter.WithRunSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Tally != b.Tally {
		t.Errorf("same run seed, different tallies:\n%v\n%v", a.Tally, b.Tally)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	w := apiWorld(t)
	run := func(seed int64) cityhunter.Tally {
		res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			cityhunter.LunchSlot, 5*time.Minute,
			cityhunter.WithArrivalScale(0.4), cityhunter.WithRunSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Tally
	}
	if run(1) == run(2) {
		t.Error("different run seeds produced identical tallies (suspicious)")
	}
}

func TestRunInvalidArgs(t *testing.T) {
	w := apiWorld(t)
	if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter, 99, time.Minute); err == nil {
		t.Error("bad slot accepted")
	}
	if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter, 0, -time.Minute); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.AttackKind(99), 0, time.Minute); err == nil {
		t.Error("unknown attack accepted")
	}
}

// TestRunValidatesVenue pins that a single-venue run rejects a venue that
// plans, campaigns and the job server would reject: a non-positive radio
// range is a FieldError naming radioRange, not a degenerate simulation.
func TestRunValidatesVenue(t *testing.T) {
	w := apiWorld(t)
	for _, r := range []float64{0, -5} {
		v := cityhunter.CanteenVenue()
		v.RadioRange = r
		res, err := w.Run(v, cityhunter.CityHunter, 4, time.Minute)
		var fe *cityhunter.FieldError
		if !errors.As(err, &fe) || fe.Path != "radioRange" {
			t.Errorf("RadioRange %v: err = %v, want a FieldError for radioRange", r, err)
		}
		if res != nil {
			t.Errorf("RadioRange %v: got a result alongside the error", r)
		}
	}
}

func TestRunWithDeauthOption(t *testing.T) {
	w := apiWorld(t)
	res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 5*time.Minute,
		cityhunter.WithArrivalScale(0.4), cityhunter.WithDeauth(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DeauthsSent == 0 {
		t.Error("deauth extension sent nothing")
	}
}

func TestRunWithCoreConfig(t *testing.T) {
	w := apiWorld(t)
	cfg := cityhunter.CoreConfig{} // zero config is invalid
	if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		0, time.Minute, cityhunter.WithCoreConfig(cfg)); err == nil {
		t.Error("invalid core config accepted")
	}
}

func TestAllVenuesRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every venue")
	}
	w := apiWorld(t)
	for _, venue := range cityhunter.AllVenues() {
		res, err := w.Run(venue, cityhunter.CityHunter, 0, 3*time.Minute,
			cityhunter.WithArrivalScale(0.3))
		if err != nil {
			t.Fatalf("%s: %v", venue.Name, err)
		}
		if res.Venue != venue.Name {
			t.Errorf("result venue = %q", res.Venue)
		}
	}
}

func TestWorldSeedsDiffer(t *testing.T) {
	a, err := cityhunter.NewWorld(cityhunter.WithSeed(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cityhunter.NewWorld(cityhunter.WithSeed(101))
	if err != nil {
		t.Fatal(err)
	}
	ra := a.City.DB.Records()
	rb := b.City.DB.Records()
	same := 0
	for i := 0; i < 100 && i < len(ra) && i < len(rb); i++ {
		if ra[i].Pos == rb[i].Pos {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different world seeds share %d/100 AP positions", same)
	}
}

func TestSparseCityLowersHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("two worlds")
	}
	dense := apiWorld(t)
	sparseCfg := cityhunter.SparseCityConfig(9)
	sparse, err := cityhunter.NewWorld(cityhunter.WithSeed(9), cityhunter.WithCityConfig(sparseCfg))
	if err != nil {
		t.Fatal(err)
	}
	run := func(w *cityhunter.World) cityhunter.Tally {
		res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			cityhunter.LunchSlot, 10*time.Minute, cityhunter.WithArrivalScale(0.6))
		if err != nil {
			t.Fatal(err)
		}
		return res.Tally
	}
	d, s := run(dense), run(sparse)
	t.Logf("dense  %v", d)
	t.Logf("sparse %v", s)
	if s.BroadcastHitRate() >= d.BroadcastHitRate() {
		t.Errorf("sparse h_b %.3f not below dense %.3f: a thin public-WiFi ecosystem should starve the seeding",
			s.BroadcastHitRate(), d.BroadcastHitRate())
	}
}

// TestRunContextCancellation pins the documented contract: a cancelled
// context yields a partial Result (the accounting up to the stop point)
// together with an error wrapping ctx.Err().
func TestRunContextCancellation(t *testing.T) {
	w := apiWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 10*time.Minute, cityhunter.WithArrivalScale(0.4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if res.Duration >= 10*time.Minute {
		t.Errorf("partial result claims full duration %v", res.Duration)
	}
}

// TestRunContextMatchesRun: Run is a plain wrapper, so both entry points
// must agree byte for byte at the same seed.
func TestRunContextMatchesRun(t *testing.T) {
	w := apiWorld(t)
	opts := []cityhunter.RunOption{cityhunter.WithArrivalScale(0.4), cityhunter.WithRunSeed(9)}
	a, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 4*time.Minute, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.RunContext(context.Background(), cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 4*time.Minute, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally {
		t.Errorf("Run and RunContext diverged:\n%v\n%v", a.Tally, b.Tally)
	}
}
