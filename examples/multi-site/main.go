// Multi-site deployment: the paper hunts its four venues one at a time;
// this example hunts two of them at once. A canteen and a subway-passage
// attacker share one city, half the phones finishing lunch walk over to the
// passage, and the example compares what the pair captures when each site
// keeps its own City-Hunter database versus when both sites work one shared
// database — a roamed phone then gets fresh SSIDs instead of repeats.
package main

import (
	"fmt"
	"log"
	"time"

	"cityhunter"
)

func main() {
	world, err := cityhunter.NewWorld(cityhunter.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	sites := []cityhunter.Venue{
		cityhunter.CanteenVenue(),
		cityhunter.PassageVenue(),
	}

	planes := []cityhunter.KnowledgePlane{
		cityhunter.Isolated,
		cityhunter.PeriodicSync,
		cityhunter.Shared,
	}
	fmt.Printf("%-14s %8s %8s %8s %7s\n", "knowledge", "phones", "captured", "h_b", "roams")
	var isolated, shared cityhunter.Tally
	for _, plane := range planes {
		res, err := world.DeploySites(sites, cityhunter.CityHunter,
			cityhunter.LunchSlot, 45*time.Minute,
			cityhunter.WithKnowledgePlane(plane),
			cityhunter.WithRoaming(0.5),
			cityhunter.WithSyncPeriod(5*time.Minute))
		if err != nil {
			log.Fatal(err)
		}
		t := res.Tally
		fmt.Printf("%-14s %8d %8d %7.1f%% %7d\n",
			plane, t.Total, t.ConnectedDirect+t.ConnectedBroadcast,
			100*t.BroadcastHitRate(), res.Roams)
		for _, site := range res.Sites {
			st := site.Tally
			fmt.Printf("  %-18s %d phones, h_b %.1f%%\n",
				site.Venue, st.Total, 100*st.BroadcastHitRate())
		}
		switch plane {
		case cityhunter.Isolated:
			isolated = t
		case cityhunter.Shared:
			shared = t
		}
	}

	fmt.Printf("\nshared database captured %d broadcast probers to isolated's %d",
		shared.ConnectedBroadcast, isolated.ConnectedBroadcast)
	if shared.ConnectedBroadcast > isolated.ConnectedBroadcast {
		fmt.Println(" — pooling hunter knowledge pays off")
	} else {
		fmt.Println()
	}

	// Deployment plans round-trip as JSON plan envelopes, so a campaign
	// can be planned once and replayed: see cityhunter.SavePlan / LoadPlan
	// with a KindDeployment plan and the -plan flag of cmd/cityhunter-sim.
}
