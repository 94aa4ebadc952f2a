package cityhunter_test

import (
	"testing"
	"time"

	"cityhunter"
)

// TestRunOptionMatrix exercises every run option against a small crowd and
// checks its observable effect.
func TestRunOptionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("several short runs")
	}
	w := apiWorld(t)
	quick := []cityhunter.RunOption{cityhunter.WithArrivalScale(0.4)}
	run := func(extra ...cityhunter.RunOption) *cityhunter.Result {
		t.Helper()
		res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			cityhunter.LunchSlot, 5*time.Minute, append(quick, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("WithWiGLE", func(t *testing.T) {
		gapped := run()
		perfect := run(cityhunter.WithWiGLE(w.City.DB))
		if perfect.Engine.SeededSize < gapped.Engine.SeededSize {
			t.Errorf("perfect DB seeded %d < gapped %d",
				perfect.Engine.SeededSize, gapped.Engine.SeededSize)
		}
	})

	t.Run("WithFrameLoss validation", func(t *testing.T) {
		if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			0, time.Minute, cityhunter.WithFrameLoss(1.5)); err == nil {
			t.Error("loss > 1 accepted")
		}
	})

	t.Run("WithCanaryClients validation", func(t *testing.T) {
		if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			0, time.Minute, cityhunter.WithCanaryClients(-0.5)); err == nil {
			t.Error("negative canary fraction accepted")
		}
	})

	t.Run("WithSentinel", func(t *testing.T) {
		res := run(cityhunter.WithSentinel())
		if res.Sentinel == nil {
			t.Fatal("no sentinel")
		}
	})

	t.Run("WithTrace", func(t *testing.T) {
		res := run(cityhunter.WithTrace())
		if res.Trace == nil || res.Trace.Len() == 0 {
			t.Fatal("no trace capture")
		}
	})

	t.Run("WithCautiousMirror sidesteps canaries", func(t *testing.T) {
		res := run(cityhunter.WithCanaryClients(1.0), cityhunter.WithCautiousMirror())
		if res.CanaryDetections != 0 {
			t.Errorf("cautious mirror unmasked %d times", res.CanaryDetections)
		}
	})

	t.Run("WithScanInterval", func(t *testing.T) {
		slow := run(cityhunter.WithScanInterval(5 * time.Minute))
		fast := run(cityhunter.WithScanInterval(20 * time.Second))
		slowProbes, fastProbes := 0, 0
		for _, o := range slow.Outcomes {
			if o.Probed {
				slowProbes++
			}
		}
		for _, o := range fast.Outcomes {
			if o.Probed {
				fastProbes++
			}
		}
		// With a 5-minute interval inside a 5-minute run, many phones
		// never scan at all.
		if slowProbes >= fastProbes {
			t.Errorf("slow scanning heard %d probers, fast heard %d", slowProbes, fastProbes)
		}
	})

	t.Run("WithDirectProberFraction", func(t *testing.T) {
		none := run(cityhunter.WithDirectProberFraction(0))
		if none.Tally.Direct != 0 {
			t.Errorf("0%% unsafe still produced %d direct probers", none.Tally.Direct)
		}
		all := run(cityhunter.WithDirectProberFraction(1))
		if all.Tally.Broadcast != 0 {
			t.Errorf("100%% unsafe still left %d broadcast-only clients", all.Tally.Broadcast)
		}
	})
}

// TestKnownBeaconsViaPublicAPI runs the related-work baseline through the
// façade.
func TestKnownBeaconsViaPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("10-minute run")
	}
	w := apiWorld(t)
	res, err := w.Run(cityhunter.CanteenVenue(), cityhunter.KnownBeacons,
		cityhunter.LunchSlot, 10*time.Minute, cityhunter.WithArrivalScale(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack != "Known Beacons" {
		t.Errorf("Attack = %q", res.Attack)
	}
	if res.Report.BeaconsSent == 0 {
		t.Error("no beacons sent")
	}
	if res.Engine != nil {
		t.Error("known beacons should not expose a City-Hunter engine")
	}
}
