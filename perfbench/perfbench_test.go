package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/attack"
	"cityhunter/internal/obs"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)

	setup := 0.0
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range f.EndToEnd {
		if d.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", d.Name, d.Bound, setup)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "perfbench" || len(f.Command) != 2 || f.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not name the perfbench wrapper", f.Command, f.Paths)
	}
}

func TestBaselineMapsEveryLayerMetric(t *testing.T) {
	var b struct {
		Layers []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []string `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]int{}
	for _, l := range b.Layers {
		if len(l.Moves) == 0 {
			t.Errorf("layer %s names no end-to-end metric it moves", l.Layer)
		}
		for _, m := range l.Metrics {
			mapped[m]++
		}
	}
	for _, d := range perLayer {
		if mapped[d.Name] != 1 {
			t.Errorf("per-layer metric %s is mapped to %d layers, want 1", d.Name, mapped[d.Name])
		}
		delete(mapped, d.Name)
	}
	for m := range mapped {
		t.Errorf("baseline.json maps unknown metric %s", m)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.P25 != 2.75 || s.Median != 5.5 || s.P75 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.P25 != 1 || s.Median != 2 || s.P75 != 4 {
		t.Errorf("summarize = %+v", s)
	}
}

// handResult is a small valid single-run result.
func handResult() *cityhunter.Result {
	outcomes := []cityhunter.Outcome{
		{Arrived: 0, Departed: time.Minute, Probed: true, Connected: true, ConnectedAt: 30 * time.Second, SSIDsSent: 40, MACsUsed: 1},
		{Arrived: 10 * time.Second, Departed: 2 * time.Minute, DirectProber: true, Probed: true, SSIDsSent: 80, MACsUsed: 1},
		{Arrived: 20 * time.Second, Departed: 90 * time.Second, MACsUsed: 1},
	}
	return &cityhunter.Result{
		Venue: "canteen", Slot: cityhunter.LunchSlot, Duration: 2 * time.Minute, Attack: "City-Hunter",
		Outcomes: outcomes,
		Tally:    cityhunter.Tally{Total: 2, Direct: 1, Broadcast: 1, ConnectedBroadcast: 1},
	}
}

func handDeployment() *cityhunter.DeploymentResult {
	a, b := handResult(), handResult()
	b.Venue = "mall"
	return &cityhunter.DeploymentResult{
		Sites:    []*cityhunter.Result{a, b},
		Outcomes: append(append([]cityhunter.Outcome(nil), a.Outcomes...), b.Outcomes...),
		Tally:    cityhunter.Tally{Total: 4, Direct: 2, Broadcast: 2, ConnectedBroadcast: 2},
		Duration: 2 * time.Minute,
		FarField: &cityhunter.FarFieldResult{
			Pedestrians: 100, Promoted: 1, Promotions: 2, Demotions: 2, PeakPromoted: 1,
			Outcomes: []cityhunter.Outcome{{Arrived: time.Second, Departed: time.Minute}},
			Sites:    []cityhunter.FarFieldSite{{Name: "canteen", Promotions: 1}, {Name: "mall", Promotions: 1}},
		},
	}
}

func batchHistogram(overflow int64) cityhunter.MetricsSnapshot {
	return cityhunter.MetricsSnapshot{{
		Name: "core_batch_size", Kind: "histogram", Count: 3 + overflow,
		Buckets: []obs.BucketCount{{UpperBound: 40, Count: 3}, {UpperBound: math.Inf(1), Count: overflow}},
	}}
}

func TestDigestRejectsPerturbedResult(t *testing.T) {
	good := &outcome{run: handResult()}
	var ref string
	if err := verify(good, false, &ref); err != nil || ref == "" {
		t.Fatalf("verify(good) = %v, ref %q", err, ref)
	}
	if err := verify(&outcome{run: handResult()}, false, &ref); err != nil {
		t.Fatalf("an identical result was rejected: %v", err)
	}
	perturb := []func(r *cityhunter.Result){
		func(r *cityhunter.Result) { r.Outcomes[2].SSIDsSent = 1 },
		func(r *cityhunter.Result) { r.Outcomes[0].ConnectedAt++ },
		func(r *cityhunter.Result) {
			r.Victims = append(r.Victims, attack.Victim{SSID: "Free WiFi", At: time.Second})
		},
		func(r *cityhunter.Result) { r.Report.TotalClients = 7 },
	}
	for i, p := range perturb {
		r := handResult()
		p(r)
		if err := verify(&outcome{run: r}, false, &ref); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("perturbation %d: verify = %v, want a digest mismatch", i, err)
		}
	}

	d := handDeployment()
	dref := digest(&outcome{dep: d})
	d.FarField.Demotions++
	if digest(&outcome{dep: d}) == dref {
		t.Error("far-field accounting is not covered by the digest")
	}
}

func TestInvariantsFlagBrokenResults(t *testing.T) {
	if err := check(&outcome{run: handResult()}, false); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	if err := check(&outcome{dep: handDeployment()}, false); err != nil {
		t.Fatalf("valid deployment rejected: %v", err)
	}
	cases := []struct {
		name   string
		out    func() *outcome
		traced bool
		want   string
	}{
		{"connected above probed", func() *outcome {
			r := handResult()
			r.Tally.ConnectedDirect = 2
			return &outcome{run: r}
		}, false, "more phones connected than probed"},
		{"tally off its outcomes", func() *outcome {
			r := handResult()
			r.Outcomes[2].Probed = true
			return &outcome{run: r}
		}, false, "does not match its outcomes"},
		{"reply budget", func() *outcome {
			r := handResult()
			r.Metrics = batchHistogram(1)
			return &outcome{run: r}
		}, true, "exceed 40 responses"},
		{"site tallies off the pooled tally", func() *outcome {
			d := handDeployment()
			d.Tally = cityhunter.Tally{Total: 3, Direct: 2, Broadcast: 1, ConnectedBroadcast: 1}
			return &outcome{dep: d}
		}, false, "per-site tallies sum"},
		{"far-field promotions", func() *outcome {
			d := handDeployment()
			d.FarField.Promotions = 3
			return &outcome{dep: d}
		}, false, "per-site promotions"},
		{"far-field outcomes", func() *outcome {
			d := handDeployment()
			d.FarField.Promoted = 2
			return &outcome{dep: d}
		}, false, "far field: 1 outcomes"},
		{"promoted above pedestrians", func() *outcome {
			d := handDeployment()
			d.FarField.Pedestrians = 0
			return &outcome{dep: d}
		}, false, "far field"},
		{"campaign incomplete", func() *outcome {
			return &outcome{camp: &cityhunter.CampaignResult{
				Results: []*cityhunter.Result{handResult(), nil}, Errs: []error{nil, nil}, Completed: 1,
			}, specs: 2}
		}, false, "completed 1 of 2"},
	}
	for _, c := range cases {
		err := check(c.out(), c.traced)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: check = %v, want %q", c.name, err, c.want)
		}
	}
	// The budget histogram is only consulted on traced operations.
	r := handResult()
	r.Metrics = batchHistogram(0)
	if err := check(&outcome{run: r}, true); err != nil {
		t.Errorf("in-budget traced run rejected: %v", err)
	}
}

func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := &report{Workload: "canteen_hour", Trace: traced, Attempted: 3}
		rep.set("wall_s", 1.5)
		var buf bytes.Buffer
		if err := rep.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("result keys = %v", last)
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%t: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%t: metric %s = %+v", traced, d.Name, m)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "canteen_hour", "--trace", "2"},
		{"--seconds", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) = %d, printed %q", args, code, out.String())
		}
	}
}

// TestWorkloadsAtTinySize runs every workload end to end, traced, at a size
// small enough for a unit test: one virtual minute, a few hundred
// pedestrians, minimal repetitions.
func TestWorkloadsAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			wl.size = size{minutes: 2 * time.Minute, pedestrians: 300}
			o := options{
				wl: wl, seed: 3, trace: true,
				minOps: 2, tracedOps: 1, counterpartOps: 1,
				setupReps: 1, layerReps: 1, mediumSamples: 5, replyClients: 5,
			}
			rep, err := bench(context.Background(), o, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted < 4 {
				t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
			}
			got := map[string]float64{}
			for _, m := range rep.Metrics {
				got[m.Name] = m.Value
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := got[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v (reported %t)", d.Name, v, ok)
				}
			}
			if got["wall_s"] <= 0 || got["sim.events"] <= 0 || got["core.engines_per_op"] <= 0 {
				t.Errorf("wall_s %v, sim.events %v, engines %v", got["wall_s"], got["sim.events"], got["core.engines_per_op"])
			}
			if s := got["scenario.unaccounted_share"]; wl.kind != campaign && math.Abs(s) > 0.01 {
				t.Errorf("phases leave %.2f%% of the traced wall time unaccounted", 100*s)
			}
		})
	}
}

func TestCompareFlagsCrossMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p provenance, wall float64) string {
		rep := &report{Workload: "canteen_hour", Provenance: p, Digest: "d"}
		rep.set("wall_s", wall)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := provenance{CPUModel: "A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	there := here
	there.NumCPU, there.GOMAXPROCS = 8, 8
	var out bytes.Buffer
	if err := compare(&out, write("a.json", here, 1), write("b.json", here, 1.5)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cross-machine") || !strings.Contains(out.String(), "+50.0%") {
		t.Errorf("same-machine comparison printed:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, write("a.json", here, 1), write("c.json", there, 1)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cross-machine comparison: num_cpu 2 vs 8; gomaxprocs 2 vs 8") {
		t.Errorf("cross-machine comparison not flagged:\n%s", out.String())
	}
}
