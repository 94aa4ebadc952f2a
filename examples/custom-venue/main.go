// Custom venue: plans are plain JSON documents, so new attack sites can be
// described without touching Go code. This example defines a night
// market — a 6pm-to-10pm venue with a mixed sitting/strolling crowd —
// loads it through the public API, and hunts there.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"cityhunter"
)

// nightMarket is a venue plan: the versioned envelope around a JSON venue
// (see cityhunter.SavePlan). cityhunter-sim runs the same file via -plan.
const nightMarket = `{
	"version": 1,
	"kind": "venue",
	"venue": {
		"name": "night market",
		"kind": "mall",
		"position": {"x": 5400, "y": 5200},
		"radioRange": 45,
		"startHour": 18,
		"arrivalsPerMinute": [14, 20, 22, 16],
		"movingFraction": 0.5,
		"staticDwell": {"medianMinutes": 9, "sigma": 0.45, "maxMinutes": 45},
		"movingDwell": {"pathLengthMetres": 80, "speedMinMps": 0.7, "speedMaxMps": 1.3},
		"rushSlots": [1, 2]
	}
}`

func main() {
	p, err := cityhunter.LoadPlan(strings.NewReader(nightMarket))
	if err != nil {
		log.Fatal(err)
	}
	venue := *p.Venue
	world, err := cityhunter.NewWorld(cityhunter.WithSeed(13))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %8s %8s %8s\n", "slot", "clients", "h", "h_b")
	for slot := 0; slot < venue.Profile.Slots(); slot++ {
		res, err := world.Run(venue, cityhunter.CityHunter, slot, 20*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8d %7.1f%% %7.1f%%\n",
			res.SlotLabel, res.Tally.Total,
			100*res.Tally.HitRate(), 100*res.Tally.BroadcastHitRate())
	}
	fmt.Println("\nThe venue came from a JSON plan; cityhunter-sim -plan runs")
	fmt.Println("the same format from the command line.")
}
