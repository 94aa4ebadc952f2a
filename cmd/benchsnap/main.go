// Command benchsnap records and checks benchmark snapshots for the
// performance tiers of this repository.
//
// Snapshot mode (the default) runs the tier benchmarks and writes a JSON
// snapshot (ns/op, B/op, allocs/op per benchmark):
//
//	benchsnap -o BENCH_4.json \
//	    [-baseline-from raw.txt -baseline-label "pre-PR4 @fcb1fdc"]
//
// -baseline-from embeds a previously captured `go test -bench -benchmem`
// output as the snapshot's baseline section, so one file carries the
// before/after pair a perf PR is judged by.
//
// Check mode re-runs the tiers and compares against a committed snapshot's
// current section, failing (exit 1) on regression:
//
//	benchsnap -check [-snapshot BENCH_4.json] [-threshold 0.30] [-alloc-tol 0.05]
//
// When -snapshot is omitted in check mode, the latest committed snapshot is
// auto-discovered: the BENCH_N.json file in the current directory with the
// highest numeric N.
//
// ns/op may regress by at most -threshold (fractional; default 30 %,
// generous because shared CI machines are noisy). allocs/op is held much
// tighter: -alloc-tol (default 5 %) absorbs only the iteration-count jitter
// of the macro benchmarks, whose per-run seeds — and therefore allocation
// counts — vary slightly with b.N; a real allocation regression on the hot
// paths jumps far past it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// tier is one benchmark group; together the tiers cover every hot path:
// the end-to-end run, the campaign grid, the attacker reply engine, frame
// marshalling, geometry queries, and the event/delivery core.
type tier struct {
	pkg       string
	bench     string
	benchtime string
}

var tiers = []tier{
	{pkg: ".", bench: "^BenchmarkCanteenRun$", benchtime: "5x"},
	{pkg: ".", bench: "^BenchmarkCanteenRunRandomized$", benchtime: "5x"},
	{pkg: ".", bench: "^BenchmarkCanteenRunMonitored$", benchtime: "5x"},
	{pkg: ".", bench: "^BenchmarkCityScale$", benchtime: "3x"},
	{pkg: ".", bench: "^BenchmarkMultiSite", benchtime: "2x"},
	{pkg: "./internal/campaign", bench: "^BenchmarkCampaignGrid$", benchtime: "2x"},
	{pkg: "./internal/core", bench: "^BenchmarkBroadcastReply", benchtime: "200000x"},
	{pkg: "./internal/ieee80211", bench: "Marshal", benchtime: "2000000x"},
	{pkg: "./internal/geo", bench: "^BenchmarkWithinRadius$", benchtime: "100000x"},
	{pkg: "./internal/sim", bench: ".", benchtime: "100000x"},
}

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Section is one labelled set of measurements.
type Section struct {
	Label   string            `json:"label"`
	Results map[string]Result `json:"results"`
}

// Snapshot is the on-disk BENCH_N.json document.
type Snapshot struct {
	Schema   string   `json:"schema"`
	Go       string   `json:"go"`
	Baseline *Section `json:"baseline,omitempty"`
	Current  Section  `json:"current"`
}

const schemaID = "cityhunter-benchsnap/1"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	var (
		outPath       = fs.String("o", "BENCH.json", "snapshot file to write (snapshot mode)")
		check         = fs.Bool("check", false, "re-run the tiers and compare against -snapshot instead of writing")
		snapshotPath  = fs.String("snapshot", "", "committed snapshot to check against (check mode); empty auto-discovers the highest BENCH_N.json")
		threshold     = fs.Float64("threshold", 0.30, "maximum fractional ns/op regression tolerated in check mode")
		allocTol      = fs.Float64("alloc-tol", 0.05, "maximum fractional allocs/op regression tolerated in check mode")
		baselineFrom  = fs.String("baseline-from", "", "raw `go test -bench -benchmem` output to embed as the baseline section")
		baselineLabel = fs.String("baseline-label", "baseline", "label for the embedded baseline section")
		currentLabel  = fs.String("label", "current", "label for the freshly measured section")
		fromRaw       = fs.String("from", "", "parse this raw benchmark output instead of running the tiers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var current map[string]Result
	var err error
	if *fromRaw != "" {
		current, err = parseFile(*fromRaw)
	} else {
		current, err = runTiers(out)
	}
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results measured")
	}

	if *check {
		how := "explicit"
		if *snapshotPath == "" {
			*snapshotPath, err = discoverSnapshot(".")
			if err != nil {
				return err
			}
			how = "auto-discovered"
		}
		fmt.Fprintf(out, "checking against %s (%s)\n", *snapshotPath, how)
		snap, err := loadSnapshot(*snapshotPath)
		if err != nil {
			return err
		}
		return compare(out, *snapshotPath, snap.Current.Results, current, *threshold, *allocTol)
	}

	snap := Snapshot{
		Schema:  schemaID,
		Go:      runtime.Version(),
		Current: Section{Label: *currentLabel, Results: current},
	}
	if *baselineFrom != "" {
		base, err := parseFile(*baselineFrom)
		if err != nil {
			return err
		}
		snap.Baseline = &Section{Label: *baselineLabel, Results: base}
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(current), *outPath)
	return nil
}

// runTiers executes every tier benchmark and merges the parsed results.
func runTiers(out io.Writer) (map[string]Result, error) {
	merged := make(map[string]Result)
	for _, t := range tiers {
		fmt.Fprintf(out, "bench %s (%s, %s)\n", t.pkg, t.bench, t.benchtime)
		cmd := exec.Command("go", "test", "-run=^$",
			"-bench="+t.bench, "-benchmem", "-benchtime="+t.benchtime, t.pkg)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("bench %s: %v\n%s", t.pkg, err, raw)
		}
		res, err := parseBench(strings.NewReader(string(raw)))
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", t.pkg, err)
		}
		for name, r := range res {
			merged[name] = r
		}
	}
	return merged, nil
}

// parseBench reads standard `go test -bench -benchmem` output lines:
//
//	BenchmarkCanteenRun-8   5   79441493 ns/op   10491353 B/op   61021 allocs/op
//
// The GOMAXPROCS suffix is stripped so results compare across machines.
func parseBench(r io.Reader) (map[string]Result, error) {
	results := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res Result
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if seen {
			results[name] = res
		}
	}
	return results, sc.Err()
}

func parseFile(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("parse %s: no benchmark lines found", path)
	}
	return res, nil
}

// discoverSnapshot returns the BENCH_N.json file in dir with the highest
// numeric N — the latest committed snapshot under the repo's naming
// convention (one snapshot per perf PR).
func discoverSnapshot(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		base := filepath.Base(m)
		numeric := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
		n, err := strconv.Atoi(numeric)
		if err != nil || n < 0 {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_N.json snapshot found in %s (pass -snapshot explicitly)", dir)
	}
	return best, nil
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if snap.Schema != schemaID {
		return nil, fmt.Errorf("%s: unknown schema %q", path, snap.Schema)
	}
	return &snap, nil
}

// compare reports every benchmark against the recorded snapshot and fails
// when ns/op regresses past threshold or allocs/op past allocTol.
func compare(out io.Writer, snapshotName string, recorded, current map[string]Result, threshold, allocTol float64) error {
	names := make([]string, 0, len(recorded))
	for name := range recorded {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		rec := recorded[name]
		cur, ok := current[name]
		if !ok {
			fmt.Fprintf(out, "MISSING %s: recorded in snapshot but not measured\n", name)
			failures++
			continue
		}
		nsDelta := frac(cur.NsPerOp, rec.NsPerOp)
		allocDelta := frac(cur.AllocsPerOp, rec.AllocsPerOp)
		status := "ok"
		switch {
		case nsDelta > threshold:
			status = fmt.Sprintf("FAIL ns/op regressed %.1f%% (limit %.0f%%)", nsDelta*100, threshold*100)
			failures++
		case allocDelta > allocTol:
			status = fmt.Sprintf("FAIL allocs/op regressed %.1f%% (limit %.0f%%)", allocDelta*100, allocTol*100)
			failures++
		}
		fmt.Fprintf(out, "%-42s ns/op %12.1f -> %12.1f (%+6.1f%%)  allocs/op %9.0f -> %9.0f (%+6.1f%%)  %s\n",
			name, rec.NsPerOp, cur.NsPerOp, nsDelta*100, rec.AllocsPerOp, cur.AllocsPerOp, allocDelta*100, status)
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed against %s", failures, snapshotName)
	}
	fmt.Fprintf(out, "all %d benchmarks within limits of %s\n", len(names), snapshotName)
	return nil
}

// frac returns the fractional change from rec to cur, treating a zero
// recorded value as unregressable unless the current value is positive.
func frac(cur, rec float64) float64 {
	if rec == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - rec) / rec
}
