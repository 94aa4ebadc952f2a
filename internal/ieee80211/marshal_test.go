package ieee80211

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var (
	testClient = MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	testAP     = MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}
)

// sampleFrames covers every supported subtype with representative fields.
func sampleFrames() []*Frame {
	return []*Frame{
		{Subtype: SubtypeProbeRequest, DA: BroadcastMAC, SA: testClient, BSSID: BroadcastMAC, Seq: 1},
		{Subtype: SubtypeProbeRequest, DA: BroadcastMAC, SA: testClient, BSSID: BroadcastMAC, Seq: 2, SSID: "HomeNet"},
		{Subtype: SubtypeProbeResponse, DA: testClient, SA: testAP, BSSID: testAP, Seq: 3,
			SSID: "7-Eleven Free Wifi", Capability: CapESS, Channel: 6, BeaconIntervalTU: 100},
		{Subtype: SubtypeBeacon, DA: BroadcastMAC, SA: testAP, BSSID: testAP, Seq: 4,
			SSID: "CSL", Capability: CapESS | CapPrivacy, Channel: 11, BeaconIntervalTU: 100},
		{Subtype: SubtypeAuth, DA: testAP, SA: testClient, BSSID: testAP, Seq: 5,
			AuthAlgorithm: AuthOpenSystem, AuthSeq: 1, Status: StatusSuccess},
		{Subtype: SubtypeAssocRequest, DA: testAP, SA: testClient, BSSID: testAP, Seq: 6,
			SSID: "Free Public WiFi", Capability: CapESS},
		{Subtype: SubtypeAssocResponse, DA: testClient, SA: testAP, BSSID: testAP, Seq: 7,
			Capability: CapESS, Status: StatusSuccess, AssociationID: 0xc001},
		{Subtype: SubtypeDeauth, DA: testClient, SA: testAP, BSSID: testAP, Seq: 8,
			Reason: ReasonDeauthLeaving},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		t.Run(f.Subtype.String(), func(t *testing.T) {
			b, err := f.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("round trip mismatch:\n got  %+v\n want %+v", got, f)
			}
		})
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	for _, f := range sampleFrames() {
		b, err := f.Marshal()
		if err != nil {
			t.Fatalf("Marshal(%v): %v", f.Subtype, err)
		}
		if f.WireLen() != len(b) {
			t.Errorf("%v: WireLen = %d, len(Marshal) = %d", f.Subtype, f.WireLen(), len(b))
		}
	}
}

func TestMarshalRejectsLongSSID(t *testing.T) {
	f := &Frame{Subtype: SubtypeProbeResponse, SSID: strings.Repeat("x", 33)}
	if _, err := f.Marshal(); !errors.Is(err, ErrSSIDTooLong) {
		t.Errorf("err = %v, want ErrSSIDTooLong", err)
	}
}

func TestMarshalAcceptsMaxSSID(t *testing.T) {
	f := &Frame{Subtype: SubtypeProbeResponse, SSID: strings.Repeat("x", 32), Channel: 1}
	b, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.SSID != f.SSID {
		t.Errorf("SSID = %q", got.SSID)
	}
}

func TestMarshalRejectsWideSeq(t *testing.T) {
	f := &Frame{Subtype: SubtypeDeauth, Seq: 0x1000}
	if _, err := f.Marshal(); !errors.Is(err, ErrInvalidSeqNumber) {
		t.Errorf("err = %v, want ErrInvalidSeqNumber", err)
	}
}

func TestMarshalRejectsUnknownSubtype(t *testing.T) {
	f := &Frame{Subtype: FrameSubtype(0x7)}
	if _, err := f.Marshal(); !errors.Is(err, ErrUnknownSubtype) {
		t.Errorf("err = %v, want ErrUnknownSubtype", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid, err := (&Frame{Subtype: SubtypeDeauth, Reason: ReasonUnspecified}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{name: "short", b: valid[:10], want: ErrShortFrame},
		{name: "truncated body", b: valid[:macHeaderLen], want: ErrTruncatedBody},
		{name: "data frame", b: append([]byte{0x08, 0}, valid[2:]...), want: ErrNotManagement},
		{name: "bad version", b: append([]byte{0x01, 0}, valid[2:]...), want: ErrProtocolVersion},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.b); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnmarshalTruncatedElement(t *testing.T) {
	f := &Frame{Subtype: SubtypeProbeRequest, SSID: "abc"}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Chop the element area mid-payload.
	if _, err := Unmarshal(b[:len(b)-3]); err == nil {
		t.Error("want error for truncated element")
	}
	// A lone element-ID byte with no length octet is also an error.
	if _, err := Unmarshal(b[:macHeaderLen+1]); err == nil {
		t.Error("want error for dangling element header")
	}
}

func TestUnmarshalMissingSSIDElement(t *testing.T) {
	f := &Frame{Subtype: SubtypeProbeResponse, SSID: "x", Channel: 1}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the fixed fields: elements (incl. SSID) removed.
	if _, err := Unmarshal(b[:macHeaderLen+12]); !errors.Is(err, ErrMissingSSID) {
		t.Errorf("err = %v, want ErrMissingSSID", err)
	}
}

func TestBroadcastAndDirectedProbePredicates(t *testing.T) {
	bcast := &Frame{Subtype: SubtypeProbeRequest}
	direct := &Frame{Subtype: SubtypeProbeRequest, SSID: "Net"}
	resp := &Frame{Subtype: SubtypeProbeResponse, SSID: "Net"}
	if !bcast.IsBroadcastProbe() || bcast.IsDirectedProbe() {
		t.Error("broadcast probe misclassified")
	}
	if direct.IsBroadcastProbe() || !direct.IsDirectedProbe() {
		t.Error("directed probe misclassified")
	}
	if resp.IsBroadcastProbe() || resp.IsDirectedProbe() {
		t.Error("probe response classified as probe request")
	}
}

func TestCapabilityPrivacy(t *testing.T) {
	if (CapESS).Privacy() {
		t.Error("open capability reports privacy")
	}
	if !(CapESS | CapPrivacy).Privacy() {
		t.Error("privacy capability not reported")
	}
}

func TestSubtypeStrings(t *testing.T) {
	subtypes := []FrameSubtype{
		SubtypeAssocRequest, SubtypeAssocResponse, SubtypeProbeRequest,
		SubtypeProbeResponse, SubtypeBeacon, SubtypeAuth, SubtypeDeauth,
		FrameSubtype(0x9),
	}
	seen := make(map[string]bool)
	for _, s := range subtypes {
		str := s.String()
		if str == "" {
			t.Errorf("empty String for %#x", uint8(s))
		}
		if seen[str] {
			t.Errorf("duplicate String %q", str)
		}
		seen[str] = true
	}
}

func TestFrameString(t *testing.T) {
	for _, f := range sampleFrames() {
		if f.String() == "" {
			t.Errorf("empty String for %v", f.Subtype)
		}
	}
	direct := &Frame{Subtype: SubtypeProbeRequest, SSID: "Cafe", SA: testClient}
	if !strings.Contains(direct.String(), "Cafe") {
		t.Errorf("directed probe String %q lacks SSID", direct.String())
	}
}

// TestQuickProbeResponseRoundTrip property-checks the marshal/unmarshal
// inverse over random field values for the most heavily used subtype.
func TestQuickProbeResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(ssidLen uint8, cap uint16, ch uint8, interval uint16, seq uint16) bool {
		ssid := make([]byte, int(ssidLen)%33)
		for i := range ssid {
			ssid[i] = byte('a' + rng.Intn(26))
		}
		frame := &Frame{
			Subtype:          SubtypeProbeResponse,
			DA:               RandomMAC(rng),
			SA:               RandomMAC(rng),
			BSSID:            RandomMAC(rng),
			Seq:              seq & 0x0fff,
			SSID:             string(ssid),
			Capability:       CapabilityInfo(cap),
			Channel:          ch,
			BeaconIntervalTU: interval,
		}
		b, err := frame.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnmarshalNeverPanics feeds random byte soup to Unmarshal.
func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", b, r)
			}
		}()
		_, _ = Unmarshal(b) // only absence of panics matters
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAirtimeProbeResponseNearNominal(t *testing.T) {
	f := &Frame{Subtype: SubtypeProbeResponse, SSID: "7-Eleven Free Wifi", Channel: 6}
	at := f.Airtime()
	if at < ProbeResponseAirtime*80/100 || at > ProbeResponseAirtime*120/100 {
		t.Errorf("probe response airtime %v not within 20%% of %v", at, ProbeResponseAirtime)
	}
}

func TestAirtimeMonotonicInSSIDLen(t *testing.T) {
	short := &Frame{Subtype: SubtypeProbeResponse, SSID: "a"}
	long := &Frame{Subtype: SubtypeProbeResponse, SSID: strings.Repeat("a", 32)}
	if short.Airtime() >= long.Airtime() {
		t.Errorf("airtime not monotonic: %v >= %v", short.Airtime(), long.Airtime())
	}
}

func TestMaxResponsesPerScanIs40(t *testing.T) {
	if MaxResponsesPerScan != 40 {
		t.Errorf("MaxResponsesPerScan = %d, want 40 (paper's limit)", MaxResponsesPerScan)
	}
}

// FuzzUnmarshal feeds untrusted frame bytes — what a capture file or a
// sniffer hands the decoder — to Unmarshal. It must never panic, and a
// frame that decodes must re-marshal to bytes that decode to an equal
// frame. Seeds: every sample frame plus the inputs under
// testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	for _, fr := range sampleFrames() {
		b, err := fr.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Unmarshal(b)
		if err != nil {
			return
		}
		wire, err := got.Marshal()
		if err != nil {
			t.Fatalf("decoded frame %#v does not marshal: %v", *got, err)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-marshalled frame %x does not decode: %v", wire, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the frame:\n got  %#v\n want %#v", *again, *got)
		}
	})
}
