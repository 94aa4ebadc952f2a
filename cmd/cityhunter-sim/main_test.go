package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cityhunter"
)

// TestRunMetricsAndTrace drives the acceptance path: one invocation with
// -metrics -trace-out must print a metrics dump covering the sim, medium,
// and engine layers, and write parseable Chrome trace-event JSON with the
// client, scan, and attacker span categories.
func TestRunMetricsAndTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-minutes", "2", "-seed", "7", "-metrics", "-trace-out", traceFile}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	text := out.String()
	for _, want := range []string{
		"--- metrics ---",
		"sim_events_executed",
		"sim_queue_depth_hwm",
		"medium_frames_sent{subtype=probe-request}",
		"medium_frames_delivered{subtype=probe-response}",
		"core_broadcast_replies",
		"core_batch_size histogram",
		"attack_probe_responses_sent",
		"scenario_virtual_seconds 120",
		"--- flight recorder:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	cats := make(map[string]int)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			cats[e.Cat]++
			if e.PID != 1 || e.TID == 0 {
				t.Errorf("event %s has pid=%d tid=%d, want pid=1 tid>0", e.Name, e.PID, e.TID)
			}
		}
	}
	for _, cat := range []string{"client", "scan", "attacker"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q events (cats: %v)", cat, cats)
		}
	}
}

// TestRunDeterministicMetrics runs the same seed twice and requires
// byte-identical output — the determinism guarantee the metrics layer
// makes for reproducing paper figures.
func TestRunDeterministicMetrics(t *testing.T) {
	invoke := func() string {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-minutes", "2", "-seed", "3", "-metrics"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	a, b := invoke(), invoke()
	if a != b {
		t.Errorf("same-seed runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// writePlan saves p as a plan envelope in a temporary file.
func writePlan(t *testing.T, p cityhunter.Plan) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SavePlan(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save plan: %v", err)
	}
	return path
}

// TestRunCampaignFile drives -plan with a campaign plan: rows print in spec
// order with the aggregate line, and output is identical at any -parallel.
func TestRunCampaignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [
		{"name": "lunch", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 2, "arrivalScale": 0.4},
		{"name": "rush", "venue": "passage", "attack": "mana", "slot": 0, "minutes": 2, "arrivalScale": 0.4}
	]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	invoke := func(parallel string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-seed", "3", "-parallel", parallel}, &out)
		if err != nil {
			t.Fatalf("run -parallel %s: %v", parallel, err)
		}
		return out.String()
	}
	serial := invoke("1")
	for _, want := range []string{"2 runs, 2 completed", "lunch", "rush", "pooled 95% CI"} {
		if !strings.Contains(serial, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, serial)
		}
	}
	if i, j := strings.Index(serial, "lunch"), strings.Index(serial, "rush"); i > j {
		t.Error("rows not in spec order")
	}
	if parallel := invoke("2"); parallel != serial {
		t.Errorf("-parallel 2 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestRunDeploymentFile drives -plan with a deployment plan: a two-site
// plan prints the header with the knowledge plane, one row per site, and
// the pooled tally, and the same seed reproduces byte-identical output.
func TestRunDeploymentFile(t *testing.T) {
	path := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.PassageVenue()},
		Knowledge:    cityhunter.Shared,
		RoamFraction: 0.5,
	}})

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-attack", "cityhunter", "-minutes", "2", "-seed", "3"}, &out)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	text := invoke()
	for _, want := range []string{"2 sites", "shared knowledge plane", "canteen", "passage", "pooled:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}
	if again := invoke(); again != text {
		t.Errorf("same-seed deployment runs diverged:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}

	// A broken plan surfaces the load error before any simulation starts.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"kind":"deployment","deployment":{"knowledge":"telepathy","sites":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-plan", bad}, &out); err == nil ||
		!strings.Contains(err.Error(), "telepathy") {
		t.Fatalf("err = %v, want unknown-knowledge-plane complaint", err)
	}
}

// TestRunDeploymentPopulation drives the level-of-detail flags: -population
// adds the far-field tier to a deployment plan's run and the output reports
// promoted-client accounting; without a plan it hunts the city-scale trio.
func TestRunDeploymentPopulation(t *testing.T) {
	path := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &cityhunter.DeploymentConfig{
		Sites: []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
	}})

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-attack", "cityhunter", "-minutes", "20",
				"-seed", "3", "-population", "2000", "-lod-radius", "80"}, &out)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	text := invoke()
	for _, want := range []string{"far field: 2000 pedestrians", "promotions", "site canteen:", "site railway station:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}
	if again := invoke(); again != text {
		t.Errorf("same-seed far-field runs diverged:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}

	// -population with no plan hunts the default city-scale trio instead
	// of erroring.
	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-population", "100", "-minutes", "5"}, &out); err != nil {
		t.Fatalf("default city-scale run: %v", err)
	}
	for _, want := range []string{"city-scale deployment: 3 sites", "far field: 100 pedestrians"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("city-scale output missing %q\n--- output ---\n%s", want, out.String())
		}
	}
}

// TestRunDeploymentPartitions drives the -partitions flag: 0 selects the
// conservative parallel engine with one partition per site, an explicit
// count produces identical output (partition-count invariance through the
// CLI), and invalid or unsupported combinations fail before any
// simulation starts.
func TestRunDeploymentPartitions(t *testing.T) {
	plan := cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
		RoamFraction: 0.5,
	}
	path := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &plan})

	invoke := func(parts string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-attack", "cityhunter", "-minutes", "10",
				"-seed", "3", "-partitions", parts}, &out)
		if err != nil {
			t.Fatalf("run -partitions %s: %v", parts, err)
		}
		return out.String()
	}
	auto := invoke("0")
	for _, want := range []string{"2 sites", "canteen", "railway station", "pooled:"} {
		if !strings.Contains(auto, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, auto)
		}
	}
	if again := invoke("0"); again != auto {
		t.Errorf("same-seed partitioned runs diverged:\n--- first ---\n%s\n--- second ---\n%s", auto, again)
	}
	if explicit := invoke("2"); explicit != auto {
		t.Errorf("-partitions 2 diverged from -partitions 0:\n--- auto ---\n%s\n--- explicit ---\n%s", auto, explicit)
	}

	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-plan", path, "-partitions", "-2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-partitions -2 invalid") {
		t.Fatalf("err = %v, want invalid-partitions complaint", err)
	}

	// A shared knowledge plane has zero lookahead; the partitioned engine
	// refuses it before the run starts.
	splan := plan
	splan.Knowledge = cityhunter.Shared
	shared := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &splan})
	out.Reset()
	if err := run(context.Background(),
		[]string{"-plan", shared, "-partitions", "0", "-minutes", "2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "shared knowledge") {
		t.Fatalf("err = %v, want shared-knowledge rejection", err)
	}
}

// TestRunCampaignFileBadSpec: load errors surface with the offending run
// named, before any simulation starts.
func TestRunCampaignFileBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [{"name": "x", "venue": "casino", "attack": "karma", "slot": 0, "minutes": 5}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-plan", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown venue "casino"`) {
		t.Fatalf("err = %v, want unknown-venue complaint", err)
	}
}

// TestRunVenuePlan drives -plan with a venue plan: a hand-written venue
// runs through the single-run path, and the same seed reproduces
// byte-identical output.
func TestRunVenuePlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "venue.json")
	doc := `{"version": 1, "kind": "venue", "venue": {
		"name": "night market",
		"kind": "mall",
		"position": {"x": 1000, "y": 2000},
		"radioRange": 40,
		"startHour": 18,
		"arrivalsPerMinute": [10, 18, 20, 12],
		"movingFraction": 0.4,
		"staticDwell": {"medianMinutes": 8, "sigma": 0.4, "maxMinutes": 40},
		"movingDwell": {"pathLengthMetres": 70, "speedMinMps": 0.8, "speedMaxMps": 1.4},
		"rushSlots": [1, 2]
	}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	invoke := func() string {
		var out bytes.Buffer
		if err := run(context.Background(),
			[]string{"-plan", path, "-slot", "1", "-minutes", "4", "-seed", "3"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	text := invoke()
	if !strings.Contains(text, "at the night market, 7pm-8pm, 4 minutes") {
		t.Errorf("output does not name the plan's venue and slot\n--- output ---\n%s", text)
	}
	if again := invoke(); again != text {
		t.Errorf("same-seed venue-plan runs diverged:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}
}

// TestRunPlanRefusesDeploymentFlags: -population, -lod-radius and
// -partitions only shape deployments; set with a venue or campaign plan
// they are refused by name instead of silently ignored (or, for
// -population, silently running the city-scale trio instead of the plan).
func TestRunPlanRefusesDeploymentFlags(t *testing.T) {
	venue := cityhunter.CanteenVenue()
	plans := map[string]string{
		"venue": writePlan(t, cityhunter.Plan{Kind: cityhunter.KindVenue, Venue: &venue}),
		"campaign": writePlan(t, cityhunter.Plan{Kind: cityhunter.KindCampaign, Specs: []cityhunter.RunSpec{
			{Name: "lunch", Venue: venue, Attack: cityhunter.CityHunter, Slot: 4, Duration: time.Minute},
		}}),
	}
	for kind, path := range plans {
		for _, flag := range [][]string{
			{"-population", "100"},
			{"-lod-radius", "80"},
			{"-partitions", "-1"},
		} {
			var out bytes.Buffer
			err := run(context.Background(), append([]string{"-plan", path, "-minutes", "1"}, flag...), &out)
			if err == nil || !strings.Contains(err.Error(), flag[0]+" applies to deployment plans only") {
				t.Errorf("%s plan with %s: err = %v, want the flag named", kind, flag[0], err)
			}
			if out.Len() != 0 {
				t.Errorf("%s plan with %s ran anyway:\n%s", kind, flag[0], out.String())
			}
		}
	}
}

// TestRunProfileFlags drives the pprof wiring: -cpuprofile and -memprofile
// must produce non-empty profile files, and an unwritable profile path must
// surface as an error before the simulation starts.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-minutes", "1", "-seed", "7",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}

	err = run(context.Background(), []string{
		"-minutes", "1",
		"-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.pprof"),
	}, &out)
	if err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
