// Quickstart: generate a synthetic city, deploy City-Hunter in the canteen
// over lunch for 30 minutes, and print the paper's two headline metrics —
// the hit rate h and the broadcast hit rate h_b.
package main

import (
	"fmt"
	"log"
	"time"

	"cityhunter"
)

func main() {
	// A World bundles the city, its crowd heat map, the phone-population
	// model and the attacker's WiGLE snapshot. Same seed ⇒ same results.
	world, err := cityhunter.NewWorld(cityhunter.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d access points (%d in the attacker's WiGLE snapshot)\n",
		world.City.DB.Len(), world.WiGLE.Len())

	res, err := world.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 30*time.Minute)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("attack: %s at the %s, %s\n", res.Attack, res.Venue, res.SlotLabel)
	fmt.Println(res.Tally)
	fmt.Printf("h   = %.1f%%  (paper: ~19%% in the canteen)\n", 100*res.Tally.HitRate())
	fmt.Printf("h_b = %.1f%%  (paper: 12-18%% depending on venue)\n", 100*res.Tally.BroadcastHitRate())

	// The engine's summary keeps the heaviest SSIDs of its database.
	fmt.Println("\ntop lure SSIDs after the run:")
	top := res.Engine.Top
	for i, e := range top[:min(5, len(top))] {
		fmt.Printf("%d. %-28s weight=%-6.0f hits=%-3d source=%v\n",
			i+1, e.SSID, e.Weight, e.Hits, e.Source)
	}
}
