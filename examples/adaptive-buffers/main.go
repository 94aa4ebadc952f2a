// Adaptive buffers: §IV-C of the paper balances the Popularity and
// Freshness buffers with an ARC-inspired rule — ghost-list hits grow the
// buffer that proved too small. This example deploys City-Hunter in the
// canteen (groups share PNL entries, freshness pays off) and the subway
// passage, sampling the buffer sizes every two minutes, and shows the split
// drifting differently at the two venues.
package main

import (
	"fmt"
	"log"
	"time"

	"cityhunter"
)

func main() {
	world, err := cityhunter.NewWorld(cityhunter.WithSeed(21))
	if err != nil {
		log.Fatal(err)
	}

	show := func(venue cityhunter.Venue, slot int) {
		res, err := world.Run(venue, cityhunter.CityHunter, slot, 30*time.Minute,
			cityhunter.WithSampling(2*time.Minute))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s, %s]\n", res.Venue, res.SlotLabel)
		fmt.Printf("%-8s %8s %4s %4s\n", "t", "DB size", "PB", "FB")
		for _, s := range res.Engine.Samples {
			fmt.Printf("%-8s %8d %4d %4d\n", s.At.Truncate(time.Second), s.DBSize, s.PB, s.FB)
		}
		breakdown := res.Breakdown()
		fmt.Printf("hits served: popularity side %d, freshness side %d  (h_b %.1f%%)\n\n",
			breakdown.FromPopularity, breakdown.FromFreshness,
			100*res.Tally.BroadcastHitRate())
	}

	show(cityhunter.CanteenVenue(), cityhunter.LunchSlot)
	show(cityhunter.PassageVenue(), cityhunter.MorningRushSlot)

	fmt.Println("The total batch stays at 40 SSIDs; the PB/FB split adapts to whether")
	fmt.Println("fresh (companion-shared) SSIDs or globally popular SSIDs are hitting.")
}
