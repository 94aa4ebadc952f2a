package scenario

import (
	"testing"
	"time"
)

// TestObservabilityDeterminism runs the same seed twice with every
// observability surface enabled and requires byte-identical metrics
// snapshots and journals: instrumentation must never consume run
// randomness or otherwise perturb the schedule.
func TestObservabilityDeterminism(t *testing.T) {
	invoke := func() *Result {
		cfg := baseConfig(t, CanteenVenue(), CityHunter, 5)
		cfg.Metrics = true
		cfg.FlightRecorderCap = 256
		cfg.SpanTrace = true
		res, err := Run(cfg, 4, 3*time.Minute)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := invoke(), invoke()

	if got, want := a.Metrics.String(), b.Metrics.String(); got != want {
		t.Errorf("same-seed metrics diverged:\n--- first ---\n%s\n--- second ---\n%s", got, want)
	}
	if a.Metrics.Value("sim_events_executed") == 0 {
		t.Error("sim_events_executed missing from snapshot")
	}
	if a.Metrics.Value("scenario_virtual_seconds") != 180 {
		t.Errorf("scenario_virtual_seconds = %v, want 180",
			a.Metrics.Value("scenario_virtual_seconds"))
	}

	ea, eb := a.Journal.Events(), b.Journal.Events()
	if len(ea) != len(eb) {
		t.Fatalf("journal lengths diverged: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Errorf("journal event %d diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}

	if a.Spans == nil || a.Spans.Len() == 0 {
		t.Fatal("span trace empty")
	}
	cats := make(map[string]bool)
	for _, c := range a.Spans.Categories() {
		cats[c] = true
	}
	if !cats["client"] {
		t.Errorf("span trace missing client lifecycle category (got %v)", a.Spans.Categories())
	}
}

// TestObservabilityOffByDefault checks the zero-config path carries no
// observability state, so the default run pays only nil-check branches.
func TestObservabilityOffByDefault(t *testing.T) {
	res, err := Run(baseConfig(t, CanteenVenue(), KARMA, 2), 4, time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics != nil || res.Journal != nil || res.Spans != nil {
		t.Errorf("observability attached without being requested: metrics=%v journal=%v spans=%v",
			res.Metrics != nil, res.Journal != nil, res.Spans != nil)
	}
}

// TestTraceDroppedSurfaced arms the pcap monitor with a tiny cap so the
// run overflows it, and checks the drop count lands in the Result and the
// first drop is journalled.
func TestTraceDroppedSurfaced(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 5)
	cfg.Trace = true
	cfg.TraceMaxEntries = 10
	cfg.FlightRecorderCap = 64
	res, err := Run(cfg, 4, 3*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TraceDropped == 0 {
		t.Fatal("expected the 10-entry capture to overflow")
	}
	if res.Trace.Dropped != res.TraceDropped {
		t.Errorf("Result.TraceDropped = %d, monitor counted %d", res.TraceDropped, res.Trace.Dropped)
	}
	found := false
	for _, e := range res.Journal.Events() {
		if e.Type == "trace-drop" {
			found = true
			break
		}
	}
	if !found {
		t.Error("first capture drop was not journalled")
	}
}

// TestDeploymentCoreGaugesPerSite checks that every isolated site's engine
// writes its own site-labelled core_* series: the snapshot must read each
// engine's own database size, not whichever engine wrote last.
func TestDeploymentCoreGaugesPerSite(t *testing.T) {
	d := deployConfig(t, CityHunter, 4)
	d.Base.Metrics = true
	res, err := RunDeployment(d, 0, 3*time.Minute)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	sizes := map[int]bool{}
	for _, s := range res.Sites {
		p, ok := res.Metrics.Get("core_db_size", "site", s.Venue)
		if !ok {
			t.Fatalf("no core_db_size series for site %q", s.Venue)
		}
		if want := s.Engine.DBSize(); int(p.Value) != want {
			t.Errorf("core_db_size{site=%q} = %v, engine holds %d", s.Venue, p.Value, want)
		}
		sizes[s.Engine.DBSize()] = true
	}
	if len(sizes) < 2 {
		t.Fatal("sites ended with equal database sizes; the test cannot tell them apart")
	}
}
