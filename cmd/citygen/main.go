// Command citygen generates a synthetic city and writes its
// WiGLE-substitute access-point database (and, optionally, the attacker's
// gap-sampled snapshot) as JSON, so experiments can reuse one environment
// across processes.
//
// Usage:
//
//	citygen -out city.json [-seed N] [-sampled-out wigle.json] [-stats]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"cityhunter/internal/citygen"
	"cityhunter/internal/heatmap"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "citygen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("citygen", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "write the full AP database JSON here")
		sampledOut = fs.String("sampled-out", "", "also write the crowd-sourced (gap-sampled) snapshot here")
		seed       = fs.Int64("seed", 1, "generation seed")
		missSmall  = fs.Float64("miss-small", 0.35, "probability a ≤3-AP network is missing from the snapshot")
		missMid    = fs.Float64("miss-mid", 0.05, "probability a 4-20-AP network is missing from the snapshot")
		stats      = fs.Bool("stats", false, "print city statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	city, err := citygen.Generate(citygen.DefaultConfig(*seed))
	if err != nil {
		return err
	}

	if *stats {
		open := 0
		for _, r := range city.DB.Records() {
			if r.Open {
				open++
			}
		}
		fmt.Printf("city: %d APs (%d open), %d photos, %d venues\n",
			city.DB.Len(), open, len(city.Photos), len(city.Hotspots))
		hm, err := heatmap.FromPhotos(city.Bounds, 200, city.Photos)
		if err != nil {
			return err
		}
		fmt.Println("top-5 SSIDs by heat value:")
		ranked := city.DB.HeatRanking(hm)
		for i := 0; i < 5 && i < len(ranked); i++ {
			fmt.Printf("  %d. %-28s heat=%d\n", i+1, ranked[i].SSID, ranked[i].Heat)
		}
	}

	if *out != "" {
		if err := city.DB.SaveFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", city.DB.Len(), *out)
	}
	if *sampledOut != "" {
		sampled, err := city.DB.SampleCrowdsourced(rand.New(rand.NewSource(*seed+999)), *missSmall, *missMid)
		if err != nil {
			return err
		}
		if err := sampled.SaveFile(*sampledOut); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", sampled.Len(), *sampledOut)
	}
	if *out == "" && *sampledOut == "" && !*stats {
		return fmt.Errorf("nothing to do: pass -out, -sampled-out or -stats")
	}
	return nil
}
