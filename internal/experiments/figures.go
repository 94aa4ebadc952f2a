package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cityhunter"
	"cityhunter/internal/stats"
)

// Figure1Point is one 2-minute sample of the MANA deployment: database
// size, cumulative broadcast victims, and the windowed hit rate h_b^r.
type Figure1Point struct {
	At        time.Duration
	DBSize    int
	Connected int
	WindowHbr float64
}

// Figure1Result reproduces Figure 1: the growth of MANA's database does
// not improve its real-time efficiency.
type Figure1Result struct {
	Duration time.Duration
	Points   []Figure1Point
}

// String renders the series.
func (r *Figure1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — MANA database size vs broadcast captures (canteen, %v)\n", r.Duration)
	fmt.Fprintf(&b, "%-8s %-8s %-10s %-8s\n", "t", "DB size", "connected", "h_b^r")
	var sizes, rates []float64
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s %-8d %-10d %6.1f%%\n",
			p.At.Truncate(time.Second), p.DBSize, p.Connected, pct(p.WindowHbr))
		sizes = append(sizes, float64(p.DBSize))
		rates = append(rates, p.WindowHbr)
	}
	fmt.Fprintf(&b, "DB size  %s\n", sparkline(sizes))
	fmt.Fprintf(&b, "h_b^r    %s\n", sparkline(rates))
	b.WriteString("paper: both curves grow steadily but h_b^r shows no improving trend\n")
	return b.String()
}

// Figure1 runs MANA in the canteen with 2-minute sampling.
func Figure1(ctx context.Context, w *cityhunter.World, o Options) (*Figure1Result, error) {
	dur := o.tableDuration()
	r, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.MANA, cityhunter.LunchSlot, dur,
		o.runOpts(w, 30, cityhunter.WithSampling(2*time.Minute))...)
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}
	windows := stats.RealTimeBroadcastHitRate(r.Outcomes, 2*time.Minute, dur)
	res := &Figure1Result{Duration: dur}
	for _, s := range r.Mana {
		connected := 0
		for _, v := range r.Victims {
			if v.At <= s.At && !v.DirectProber {
				connected++
			}
		}
		p := Figure1Point{At: s.At, DBSize: s.Size, Connected: connected}
		if wi := int(s.At / (2 * time.Minute)); wi < len(windows) {
			p.WindowHbr = windows[wi].Rate()
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Figure2Result reproduces Figure 2: how many SSIDs were tried per client
// in the canteen (a) and the passage (b).
type Figure2Result struct {
	// CanteenMin/Mean/Max summarise SSIDs sent to *connected* canteen
	// clients (paper: range 20–250, mean ≈130).
	CanteenMin, CanteenMax int
	CanteenMean            float64
	CanteenVictims         int
	// PassageShares is the fraction of broadcast-probing passage clients
	// that received exactly k reply batches, i.e. k×40 SSIDs (paper:
	// ≈70 % saw 40, ≈22 % saw 80).
	PassageShares []BatchShare
}

// BatchShare is one bar of Figure 2b.
type BatchShare struct {
	// SSIDs is the bar's x value (40, 80, ...).
	SSIDs    int
	Clients  int
	Fraction float64
}

// String renders both panels.
func (r *Figure2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2a — SSIDs sent to each connected client (canteen)\n")
	fmt.Fprintf(&b, "victims=%d  min=%d  mean=%.0f  max=%d\n",
		r.CanteenVictims, r.CanteenMin, r.CanteenMean, r.CanteenMax)
	b.WriteString("paper: range 20-250, average 130\n")
	b.WriteString("Figure 2b — SSIDs tried per broadcast client (passage)\n")
	for _, share := range r.PassageShares {
		if share.Clients == 0 {
			continue
		}
		fmt.Fprintf(&b, "%4d %5.1f%%  (%d clients)\n", share.SSIDs, pct(share.Fraction), share.Clients)
	}
	b.WriteString("paper: ~70% of clients saw 40 SSIDs, ~22% saw 80\n")
	return b.String()
}

// Figure2 runs the two §III experiments with the preliminary design.
func Figure2(ctx context.Context, w *cityhunter.World, o Options) (*Figure2Result, error) {
	canteen, err := w.RunContext(ctx, cityhunter.CanteenVenue(), cityhunter.CityHunterPreliminary,
		cityhunter.LunchSlot, o.tableDuration(), o.runOpts(w, 40)...)
	if err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}
	passage, err := w.RunContext(ctx, cityhunter.PassageVenue(), cityhunter.CityHunterPreliminary,
		cityhunter.MorningRushSlot, o.tableDuration(), o.runOpts(w, 41)...)
	if err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}

	res := &Figure2Result{CanteenMin: -1}
	total := 0
	for _, out := range canteen.Outcomes {
		if !out.Connected {
			continue
		}
		res.CanteenVictims++
		total += out.SSIDsSent
		if res.CanteenMin < 0 || out.SSIDsSent < res.CanteenMin {
			res.CanteenMin = out.SSIDsSent
		}
		if out.SSIDsSent > res.CanteenMax {
			res.CanteenMax = out.SSIDsSent
		}
	}
	if res.CanteenVictims > 0 {
		res.CanteenMean = float64(total) / float64(res.CanteenVictims)
	} else {
		res.CanteenMin = 0
	}

	// Bin by the number of full 40-SSID reply batches received.
	counts := make(map[int]int)
	n := 0
	maxBatches := 0
	for _, out := range passage.Outcomes {
		if !out.Probed || out.DirectProber {
			continue
		}
		batches := (out.SSIDsSent + 39) / 40
		counts[batches]++
		n++
		if batches > maxBatches {
			maxBatches = batches
		}
	}
	for k := 0; k <= maxBatches; k++ {
		if n == 0 {
			break
		}
		res.PassageShares = append(res.PassageShares, BatchShare{
			SSIDs:    40 * k,
			Clients:  counts[k],
			Fraction: float64(counts[k]) / float64(n),
		})
	}
	return res, nil
}

// Figure4Cell is one hot cell of the heat map with the venue it contains.
type Figure4Cell struct {
	// Center is the cell centre, rendered as "(x, y)".
	Center string
	Photos int
	Venue  string
}

// Figure4Result reproduces Figure 4: the hottest heat-map cells coincide
// with the city's crowded venues.
type Figure4Result struct {
	Cells []Figure4Cell
}

// String renders the hot-cell list.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4 — hottest heat-map cells (photo counts) and the venues there\n")
	fmt.Fprintf(&b, "%-20s %-8s %s\n", "Cell center", "Photos", "Venue")
	for _, c := range r.Cells {
		venue := c.Venue
		if venue == "" {
			venue = "-"
		}
		fmt.Fprintf(&b, "%-20s %-8d %s\n", c.Center, c.Photos, venue)
	}
	b.WriteString("paper: red areas are iSQUARE, theONE and the airport\n")
	return b.String()
}

// Figure4 lists the hottest cells and matches them to venues.
func Figure4(_ context.Context, w *cityhunter.World, _ Options) (*Figure4Result, error) {
	res := &Figure4Result{}
	for _, cell := range w.Heat.HottestCells(10) {
		fc := Figure4Cell{Center: cell.Center.String(), Photos: cell.Photos}
		for _, h := range w.City.Hotspots {
			if cell.Center.Dist(h.Center) <= h.Radius+w.Heat.CellSize() {
				fc.Venue = h.Name
				break
			}
		}
		res.Cells = append(res.Cells, fc)
	}
	return res, nil
}
