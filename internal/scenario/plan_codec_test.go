package scenario_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/mobility"
	"cityhunter/internal/plan"
	"cityhunter/internal/scenario"
)

// Venues and deployments persist only as plan envelopes; these tests drive
// the scenario payloads through plan.Save/plan.Load.

func saveVenue(v scenario.Venue) ([]byte, error) {
	var buf bytes.Buffer
	err := plan.Save(&buf, plan.Plan{Kind: plan.KindVenue, Venue: &v})
	return buf.Bytes(), err
}

// loadVenue wraps a venue document in a venue plan and decodes it.
func loadVenue(doc string) (scenario.Venue, error) {
	p, err := plan.Decode([]byte(`{"version":1,"kind":"venue","venue":` + doc + `}`))
	if err != nil {
		return scenario.Venue{}, err
	}
	return *p.Venue, nil
}

func saveDeployment(dcfg scenario.DeploymentConfig) ([]byte, error) {
	var buf bytes.Buffer
	err := plan.Save(&buf, plan.Plan{Kind: plan.KindDeployment, Deployment: &dcfg})
	return buf.Bytes(), err
}

// loadDeployment wraps a deployment document in a deployment plan and
// decodes it.
func loadDeployment(doc string) (scenario.DeploymentConfig, error) {
	p, err := plan.Decode([]byte(`{"version":1,"kind":"deployment","deployment":` + doc + `}`))
	if err != nil {
		return scenario.DeploymentConfig{}, err
	}
	return *p.Deployment, nil
}

func TestVenueSaveLoadRoundTrip(t *testing.T) {
	for _, v := range scenario.AllVenues() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			data, err := saveVenue(v)
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			p, err := plan.Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			back := *p.Venue
			if back.Name != v.Name || back.Kind != v.Kind {
				t.Errorf("identity changed: %q/%v", back.Name, back.Kind)
			}
			if back.Position != v.Position || back.RadioRange != v.RadioRange {
				t.Error("geometry changed")
			}
			if back.MovingFraction != v.MovingFraction {
				t.Error("moving fraction changed")
			}
			if len(back.Profile.PerMinute) != len(v.Profile.PerMinute) {
				t.Fatal("profile length changed")
			}
			for i := range back.Profile.PerMinute {
				if back.Profile.PerMinute[i] != v.Profile.PerMinute[i] {
					t.Fatalf("profile slot %d changed", i)
				}
			}
			if back.StaticDwell != v.StaticDwell {
				t.Error("static dwell changed")
			}
			if back.MovingDwell != v.MovingDwell {
				t.Error("moving dwell changed")
			}
			if len(back.RushSlots) != len(v.RushSlots) {
				t.Error("rush slots changed")
			}
		})
	}
}

// TestLoadVenueValidation: each document is rejected, and the error names
// the offending venue field.
func TestLoadVenueValidation(t *testing.T) {
	tests := []struct {
		name string
		json string
		want string
	}{
		{"garbage", `{not json`, "plan: decode"},
		{"unknown kind", `{"name":"x","kind":"volcano","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.1,"maxMinutes":30}}`, `unknown venue kind "volcano"`},
		{"missing name", `{"kind":"canteen","radioRange":50,"arrivalsPerMinute":[1]}`, "needs a name"},
		{"zero range", `{"name":"x","kind":"canteen","radioRange":0,"arrivalsPerMinute":[1]}`, "radio range"},
		{"empty profile", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[]}`, "empty profile"},
		{"negative rate", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[-1]}`, "bad rate -1"},
		{"bad moving fraction", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":2}`, "moving fraction 2"},
		{"rush slot out of range", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"rushSlots":[5],"staticDwell":{"medianMinutes":5,"sigma":0.1,"maxMinutes":30}}`, "rush slot 5"},
		{"moving without model", `{"name":"x","kind":"passage","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":1}`, "moving dwell model"},
		{"static without model", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":0}`, "static dwell model"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := loadVenue(tt.json)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

// TestLoadVenueHandWritten decodes a hand-written venue; the command-line
// tests run the same document as a venue plan.
func TestLoadVenueHandWritten(t *testing.T) {
	const doc = `{
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
	}`
	v, err := loadVenue(doc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if v.Kind != scenario.Mall || v.Profile.StartHour != 18 || !v.IsRush(2) || v.IsRush(0) {
		t.Errorf("venue = %+v", v)
	}
	if v.Profile.SlotLabel(0) != "6pm-7pm" {
		t.Errorf("label = %q", v.Profile.SlotLabel(0))
	}
	if want := (mobility.StaticDwell{Median: 8 * time.Minute, Sigma: 0.4, Max: 40 * time.Minute}); v.StaticDwell != want {
		t.Errorf("static dwell = %+v, want %+v", v.StaticDwell, want)
	}
}

func TestSaveVenueRejectsCustomDwell(t *testing.T) {
	v := scenario.CanteenVenue()
	v.StaticDwell = mobility.HybridDwell{
		StaticFraction: 0.5,
		Static:         v.StaticDwell,
		Moving:         v.MovingDwell,
	}
	if _, err := saveVenue(v); err == nil || !strings.Contains(err.Error(), "not encodable") {
		t.Errorf("custom dwell model encoded: %v", err)
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	in := scenario.DeploymentConfig{
		Sites:        []scenario.Venue{scenario.CanteenVenue(), scenario.PassageVenue(), scenario.MallVenue()},
		Knowledge:    scenario.PeriodicSync,
		SyncEvery:    45 * time.Second,
		RoamFraction: 0.35,
		Transit:      mobility.TransitModel{SpeedMin: 1.0, SpeedMax: 2.0},
	}
	data, err := saveDeployment(in)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	p, err := plan.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	out := *p.Deployment
	if out.Knowledge != in.Knowledge || out.SyncEvery != in.SyncEvery ||
		out.RoamFraction != in.RoamFraction || out.Transit != in.Transit {
		t.Fatalf("plane fields did not round-trip: %+v", out)
	}
	if len(out.Sites) != len(in.Sites) {
		t.Fatalf("%d sites round-tripped to %d", len(in.Sites), len(out.Sites))
	}
	for i := range in.Sites {
		if out.Sites[i].Name != in.Sites[i].Name || out.Sites[i].Position != in.Sites[i].Position {
			t.Errorf("site %d diverged: %+v", i, out.Sites[i])
		}
	}
}

func TestSaveDeploymentErrors(t *testing.T) {
	if _, err := saveDeployment(scenario.DeploymentConfig{Knowledge: scenario.KnowledgePlane(7), Sites: []scenario.Venue{scenario.CanteenVenue()}}); err == nil ||
		!strings.Contains(err.Error(), "not encodable") {
		t.Errorf("bad knowledge plane: %v", err)
	}
	if _, err := saveDeployment(scenario.DeploymentConfig{}); err == nil ||
		!strings.Contains(err.Error(), "at least one site") {
		t.Errorf("empty site list: %v", err)
	}
	custom := scenario.CanteenVenue()
	custom.Kind = scenario.VenueKind(42)
	if _, err := saveDeployment(scenario.DeploymentConfig{Sites: []scenario.Venue{custom}}); err == nil ||
		!strings.Contains(err.Error(), "site 0") {
		t.Errorf("unencodable site kind: %v", err)
	}
}

func TestLoadDeploymentErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "{", "plan: decode"},
		{"unknown plane", `{"knowledge":"telepathy","sites":[]}`, `unknown knowledge plane "telepathy"`},
		{"no sites", `{"knowledge":"isolated","sites":[]}`, "at least one site"},
		{"bad site", `{"knowledge":"shared","sites":[{"kind":"canteen","name":"x","radioRange":-3}]}`, "site 0"},
		{"bad roam", `{"knowledge":"shared","roamFraction":2,"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "roam fraction 2 outside [0,1]"},
		{"bad sync", `{"knowledge":"shared","syncEverySeconds":-4,"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "sync period"},
		{"bad transit", `{"knowledge":"shared","transit":{"speedMinMps":2,"speedMaxMps":1},"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "transit speed max"},
	}
	for _, tc := range cases {
		_, err := loadDeployment(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Omitted knowledge defaults to isolated for hand-written plans.
	dcfg, err := loadDeployment(
		`{"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`)
	if err != nil {
		t.Fatalf("minimal plan rejected: %v", err)
	}
	if dcfg.Knowledge != scenario.Isolated {
		t.Errorf("omitted knowledge plane decoded as %v", dcfg.Knowledge)
	}
}
