package plan

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/mobility"
	"cityhunter/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden plan files from current behaviour")

// checkGolden compares got against testdata/name byte for byte, rewriting
// in -update mode. The golden files double as the compatibility contract:
// the plan envelope must keep emitting these exact bytes.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./internal/plan -update`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// Fixtures shared by the golden and round-trip tests. Deterministic by
// construction: venue constructors take no randomness.
func fixtureVenue() scenario.Venue { return scenario.CanteenVenue() }

func fixtureDeployment() scenario.DeploymentConfig {
	return scenario.DeploymentConfig{
		Sites:        []scenario.Venue{scenario.CanteenVenue(), scenario.PassageVenue()},
		Knowledge:    scenario.PeriodicSync,
		SyncEvery:    45 * time.Second,
		RoamFraction: 0.35,
		Transit:      mobility.TransitModel{SpeedMin: 1.0, SpeedMax: 2.0},
	}
}

func fixtureSpecs() []campaign.Spec {
	scan := 40 * time.Second
	frac := 0.25
	return []campaign.Spec{
		{
			Name:     "lunch baseline",
			Venue:    scenario.CanteenVenue(),
			Attack:   scenario.CityHunter,
			Slot:     4,
			Duration: 30 * time.Minute,
		},
		{
			Name:           "defended rush",
			Venue:          scenario.PassageVenue(),
			Attack:         scenario.MANA,
			Slot:           0,
			Duration:       90 * time.Second,
			Seed:           42,
			ScanInterval:   &scan,
			CanaryFraction: &frac,
			Deauth:         true,
		},
	}
}

func fixturePlans() map[string]Plan {
	v := fixtureVenue()
	d := fixtureDeployment()
	return map[string]Plan{
		"venue":      {Kind: KindVenue, Venue: &v},
		"deployment": {Kind: KindDeployment, Deployment: &d},
		"campaign":   {Kind: KindCampaign, Specs: fixtureSpecs()},
	}
}

// TestPlanGolden pins the envelope format: Save output for each kind must
// stay byte-identical to testdata/<kind>.plan.json, and loading a golden
// file back must re-encode to the same canonical bytes as the in-code
// fixture.
func TestPlanGolden(t *testing.T) {
	for name, p := range fixturePlans() {
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		checkGolden(t, name+".plan.json", buf.Bytes())

		data, err := os.ReadFile(filepath.Join("testdata", name+".plan.json"))
		if err != nil {
			t.Fatalf("%s: read golden: %v", name, err)
		}
		loaded, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", name, err)
		}
		wantCanon, err := Encode(p)
		if err != nil {
			t.Fatalf("%s: encode fixture: %v", name, err)
		}
		gotCanon, err := Encode(loaded)
		if err != nil {
			t.Fatalf("%s: re-encode loaded: %v", name, err)
		}
		if !bytes.Equal(wantCanon, gotCanon) {
			t.Errorf("%s: golden does not re-encode canonically:\n--- fixture ---\n%s\n--- loaded ---\n%s",
				name, wantCanon, gotCanon)
		}
	}
}

// TestPlanRoundTrip checks Save → Load → Save byte equality for every
// kind, plus payload survival.
func TestPlanRoundTrip(t *testing.T) {
	for name, p := range fixturePlans() {
		var first bytes.Buffer
		if err := Save(&first, p); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if loaded.Version != Version || loaded.Kind != p.Kind {
			t.Errorf("%s: envelope fields lost: %+v", name, loaded)
		}
		var second bytes.Buffer
		if err := Save(&second, loaded); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: round trip not byte-stable:\n--- first ---\n%s\n--- second ---\n%s",
				name, first.String(), second.String())
		}
	}

	// Payload spot checks.
	plans := fixturePlans()
	var buf bytes.Buffer
	if err := Save(&buf, plans["campaign"]); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Specs) != 2 || loaded.Specs[1].Seed != 42 || !loaded.Specs[1].Deauth {
		t.Errorf("campaign payload lost: %+v", loaded.Specs)
	}
}

// TestPlanStrictRejection: the envelope is strict end to end — unknown
// fields anywhere, version drift, and kind/payload mismatches are all
// named in the error.
func TestPlanStrictRejection(t *testing.T) {
	venuePayload := `{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}`
	cases := []struct {
		label string
		json  string
		want  string
	}{
		{"unknown envelope field",
			`{"version":1,"kind":"venue","venue":` + venuePayload + `,"turbo":true}`,
			`"turbo"`},
		{"version drift",
			`{"version":2,"kind":"venue","venue":` + venuePayload + `}`,
			"unsupported version 2 (want 1)"},
		{"version missing",
			`{"kind":"venue","venue":` + venuePayload + `}`,
			"unsupported version 0 (want 1)"},
		{"unknown kind",
			`{"version":1,"kind":"heist","venue":` + venuePayload + `}`,
			`unknown kind "heist"`},
		{"venue kind, campaign payload",
			`{"version":1,"kind":"venue","venue":` + venuePayload + `,"campaign":{"runs":[]}}`,
			`kind "venue" does not take a "campaign" payload`},
		{"campaign kind, venue payload",
			`{"version":1,"kind":"campaign","venue":` + venuePayload + `,"campaign":{"runs":[]}}`,
			`kind "campaign" does not take a "venue" payload`},
		{"missing payload",
			`{"version":1,"kind":"deployment"}`,
			"deployment plan needs a deployment payload"},
		{"unknown field inside venue payload",
			`{"version":1,"kind":"venue","venue":{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20},"wifi7":true}}`,
			`"wifi7"`},
		{"unknown field inside deployment site",
			`{"version":1,"kind":"deployment","deployment":{"knowledge":"shared","sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20},"lasers":1}]}}`,
			`"lasers"`},
		{"unknown field inside campaign venueSpec",
			`{"version":1,"kind":"campaign","campaign":{"runs":[{"name":"a","venueSpec":{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20},"overclock":2},"attack":"karma","slot":0,"minutes":5}]}}`,
			`"overclock"`},
		{"empty campaign",
			`{"version":1,"kind":"campaign","campaign":{"runs":[]}}`,
			"no runs"},
		{"semantic validation still applies",
			`{"version":1,"kind":"deployment","deployment":{"knowledge":"shared","roamFraction":2,"sites":[` + venuePayload + `]}}`,
			"roam fraction 2 outside [0,1]"},
		{"invalid partition count",
			`{"version":1,"kind":"deployment","deployment":{"knowledge":"isolated","roamFraction":0,"partitions":-2,"sites":[` + venuePayload + `]}}`,
			"partition count -2 invalid"},
		{"partitioned shared knowledge",
			`{"version":1,"kind":"deployment","deployment":{"knowledge":"shared","roamFraction":0,"partitions":-1,"sites":[` + venuePayload + `]}}`,
			"shared knowledge plane cannot run partitioned"},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
	}
}

// TestPartitionsRoundTrip: the partitions field survives the envelope
// byte-stably for every encodable value, and its absence decodes to the
// classic engine — pre-partitioning plans keep meaning what they meant.
func TestPartitionsRoundTrip(t *testing.T) {
	for _, parts := range []int{scenario.AutoPartitions, 1, 3} {
		d := fixtureDeployment()
		d.Partitions = parts
		p := Plan{Kind: KindDeployment, Deployment: &d}
		var first bytes.Buffer
		if err := Save(&first, p); err != nil {
			t.Fatalf("partitions=%d: save: %v", parts, err)
		}
		if !strings.Contains(first.String(), `"partitions"`) {
			t.Fatalf("partitions=%d: field not serialized:\n%s", parts, first.String())
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("partitions=%d: load: %v", parts, err)
		}
		if loaded.Deployment.Partitions != parts {
			t.Errorf("partitions=%d: round-tripped to %d", parts, loaded.Deployment.Partitions)
		}
		var second bytes.Buffer
		if err := Save(&second, loaded); err != nil {
			t.Fatalf("partitions=%d: re-save: %v", parts, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("partitions=%d: round trip not byte-stable", parts)
		}
	}

	// The fixture (Partitions 0) must not serialize the field at all, so
	// the pre-partitioning golden bytes stay frozen.
	var buf bytes.Buffer
	if err := Save(&buf, fixturePlans()["deployment"]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"partitions"`) {
		t.Errorf("classic deployment serialized a partitions field:\n%s", buf.String())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Deployment.Partitions != 0 {
		t.Errorf("absent partitions decoded to %d, want 0", loaded.Deployment.Partitions)
	}
}

// TestEncodeErrors covers the writer-side guards.
func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(Plan{Kind: KindVenue}); err == nil || !strings.Contains(err.Error(), "venue payload") {
		t.Errorf("missing venue payload: %v", err)
	}
	if _, err := Encode(Plan{Kind: KindCampaign}); err == nil || !strings.Contains(err.Error(), "no runs") {
		t.Errorf("empty campaign: %v", err)
	}
	if _, err := Encode(Plan{Kind: "heist"}); err == nil || !strings.Contains(err.Error(), `unknown kind "heist"`) {
		t.Errorf("unknown kind: %v", err)
	}
	v := fixtureVenue()
	if _, err := Encode(Plan{Version: 3, Kind: KindVenue, Venue: &v}); err == nil ||
		!strings.Contains(err.Error(), "unsupported version 3") {
		t.Errorf("bad version: %v", err)
	}
}

// canonicalFixedPoint decodes data, re-encodes it, and checks the canonical
// bytes survive a second Decode → Encode unchanged.
func canonicalFixedPoint(t *testing.T, data []byte) {
	t.Helper()
	p, err := Decode(data)
	if err != nil {
		return
	}
	first, err := Encode(p)
	if err != nil {
		t.Fatalf("decoded plan does not encode: %v", err)
	}
	q, err := Decode(first)
	if err != nil {
		t.Fatalf("canonical form does not decode: %v\n%s", err, first)
	}
	second, err := Encode(q)
	if err != nil {
		t.Fatalf("re-decoded plan does not encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("canonical form is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestPlanDecodeFixedPoint: durations written as fractional minutes or
// seconds decode to the nearest nanosecond, so a re-saved plan keeps its
// bytes (and its content hash). Each value here lost 1 ns per round trip
// when decoding truncated; the long run (~49 days) also drifts when n*unit
// is rounded in one step.
func TestPlanDecodeFixedPoint(t *testing.T) {
	site := `{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":0.57,"sigma":0.5,"maxMinutes":4.35}}`
	wholeSite := `{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}`
	for label, doc := range map[string]string{
		"campaign minutes":      `{"version":1,"kind":"campaign","campaign":{"runs":[{"venue":"canteen","attack":"karma","slot":0,"minutes":0.143}]}}`,
		"long campaign minutes": `{"version":1,"kind":"campaign","campaign":{"runs":[{"venue":"canteen","attack":"karma","slot":0,"minutes":71090.71952999951}]}}`,
		"scan interval":         `{"version":1,"kind":"campaign","campaign":{"runs":[{"venue":"canteen","attack":"karma","slot":0,"minutes":5,"scanIntervalSeconds":1.36}]}}`,
		"venue dwell minutes":   `{"version":1,"kind":"venue","venue":` + site + `}`,
		"sync period":           `{"version":1,"kind":"deployment","deployment":{"knowledge":"periodic-sync","syncEverySeconds":1.57,"sites":[` + wholeSite + `]}}`,
	} {
		t.Run(label, func(t *testing.T) {
			if _, err := Decode([]byte(doc)); err != nil {
				t.Fatalf("fixture rejected: %v", err)
			}
			canonicalFixedPoint(t, []byte(doc))
		})
	}
}

// FuzzPlanDecode feeds untrusted bytes — what the job server reads from
// HTTP bodies — to Decode. It must never panic, a plan that decodes must
// encode, and its canonical form must be a fixed point of Decode → Encode.
// Seeds: the golden plans here plus the strict-rejection inputs under
// testdata/fuzz/FuzzPlanDecode.
func FuzzPlanDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.plan.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden plans to seed from: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(canonicalFixedPoint)
}
