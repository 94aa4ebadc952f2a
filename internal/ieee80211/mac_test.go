package ieee80211

import (
	"math/rand"
	"testing"
)

func TestParseMAC(t *testing.T) {
	tests := []struct {
		give    string
		want    MAC
		wantErr bool
	}{
		{give: "02:00:5e:10:00:01", want: MAC{0x02, 0x00, 0x5e, 0x10, 0x00, 0x01}},
		{give: "ff:ff:ff:ff:ff:ff", want: BroadcastMAC},
		{give: "00:00:00:00:00:00", want: MAC{}},
		{give: "02:00:5e:10:00", wantErr: true},
		{give: "02:00:5e:10:00:01:02", wantErr: true},
		{give: "zz:00:5e:10:00:01", wantErr: true},
		{give: "0200:5e:10:00:01:02", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseMAC(tt.give)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMACStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		m := RandomMAC(rng)
		back, err := ParseMAC(m.String())
		if err != nil {
			t.Fatalf("ParseMAC(%q): %v", m.String(), err)
		}
		if back != m {
			t.Fatalf("round trip: %v != %v", back, m)
		}
	}
}

func TestRandomMACIsLocalUnicast(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		m := RandomMAC(rng)
		if !m.IsLocallyAdministered() {
			t.Fatalf("%v lacks locally-administered bit", m)
		}
		if m[0]&0x01 != 0 {
			t.Fatalf("%v has multicast bit", m)
		}
		if m.IsBroadcast() {
			t.Fatalf("random MAC is broadcast")
		}
	}
}

func TestRandomMACUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := make(map[MAC]bool, 1000)
	for i := 0; i < 1000; i++ {
		m := RandomMAC(rng)
		if seen[m] {
			t.Fatalf("duplicate MAC %v after %d draws", m, i)
		}
		seen[m] = true
	}
}

func TestDerivedRandomMACShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		m := DerivedRandomMAC(RandomMAC(rng), uint32(i))
		if m[0] != RandomizedMACPrefix {
			t.Fatalf("%v not in the 0x%02x randomized block", m, RandomizedMACPrefix)
		}
		if !m.IsLocallyAdministered() {
			t.Fatalf("%v lacks locally-administered bit", m)
		}
		if m[0]&0x01 != 0 {
			t.Fatalf("%v has multicast bit", m)
		}
	}
}

func TestDerivedRandomMACDeterministic(t *testing.T) {
	id := MAC{0x02, 0x00, 0xde, 0xad, 0xbe, 0xef}
	for n := uint32(0); n < 8; n++ {
		if a, b := DerivedRandomMAC(id, n), DerivedRandomMAC(id, n); a != b {
			t.Fatalf("counter %d: %v != %v", n, a, b)
		}
	}
}

// TestDerivedRandomMACDisjointFromIdentityBlocks guards the invariant the
// whole identity/observable split rests on: a rotated MAC can never collide
// with any stable identity MAC the simulation allocates. Identity planes
// draw from the classic 0x02:0x00 block, the per-site 0x06:… blocks, the
// far-field 0x02:0x10 block and the 0x0a:… infrastructure block — all with
// a first octet different from RandomizedMACPrefix.
func TestDerivedRandomMACDisjointFromIdentityBlocks(t *testing.T) {
	identityPrefixes := []byte{0x02, 0x06, 0x0a}
	for _, p := range identityPrefixes {
		if p == RandomizedMACPrefix {
			t.Fatalf("identity prefix 0x%02x collides with the randomized block", p)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		m := DerivedRandomMAC(RandomMAC(rng), uint32(i%7))
		for _, p := range identityPrefixes {
			if m[0] == p {
				t.Fatalf("derived MAC %v landed in identity block 0x%02x", m, p)
			}
		}
	}
}

// TestDerivedRandomMACCollisionRegression: the splitmix64 derivation must
// spread a realistic population's rotation sequences across the 40-bit tail
// without collisions. 1000 identities × 32 rotations each (32k MACs) is far
// denser than any simulated venue.
func TestDerivedRandomMACCollisionRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seen := make(map[MAC]bool, 32000)
	for i := 0; i < 1000; i++ {
		id := RandomMAC(rng)
		for n := uint32(1); n <= 32; n++ {
			m := DerivedRandomMAC(id, n)
			if seen[m] {
				t.Fatalf("derived MAC collision at %v (identity %v, rotation %d)", m, id, n)
			}
			seen[m] = true
		}
	}
}

func TestIsBroadcast(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() {
		t.Error("BroadcastMAC.IsBroadcast() = false")
	}
	if (MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}).IsBroadcast() {
		t.Error("near-broadcast reported broadcast")
	}
}

// FuzzParseMAC checks that ParseMAC never panics and that every address it
// accepts survives a String → ParseMAC round trip.
func FuzzParseMAC(f *testing.F) {
	for _, s := range []string{"02:00:5e:10:00:01", "FF:ff:FF:ff:FF:ff", "02:00:5e:10:00", "zz:00:5e:10:00:01", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMAC(s)
		if err != nil {
			return
		}
		back, err := ParseMAC(m.String())
		if err != nil || back != m {
			t.Fatalf("ParseMAC(%q) = %v, but ParseMAC(%q) = %v, %v", s, m, m.String(), back, err)
		}
	})
}
