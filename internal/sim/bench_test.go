package sim

import (
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.Run(e.Now() + time.Millisecond)
		}
	}
	e.Run(e.Now() + time.Second)
}

func BenchmarkMediumBroadcast100Stations(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &fakeStation{addr: mac(0), pos: geo.Pt(0, 0)}
	if err := m.Attach(tx); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		s := &fakeStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(float64(i%10), float64(i/10)),
		}
		s.onRecv = func(*ieee80211.Frame) {}
		if err := m.Attach(s); err != nil {
			b.Fatal(err)
		}
	}
	f := probeReq(tx.addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		e.Run(e.Now() + time.Millisecond)
	}
}

// BenchmarkMediumBroadcastCanteen measures one broadcast fan-out at
// canteen density: 300 stations on mixed channels over a 80 m square (the
// area of the canteen's 45 m placement disk) under a 50 m radio range, with
// cells churned so grid buckets no longer list stations in slot order. The
// transmitter rotates over the attached stations.
func BenchmarkMediumBroadcastCanteen(b *testing.B) {
	const half = 40.0
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	m := NewMedium(e, 50)
	st := newChurnStations(rng, 300, half, nil)
	for _, s := range st {
		if err := m.Attach(s); err != nil {
			b.Fatal(err)
		}
	}
	churn(rng, m, st, half, 600)
	var frames []*ieee80211.Frame
	for _, s := range st {
		if m.Attached(s.addr) {
			frames = append(frames, probeReq(s.addr))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(frames[i%len(frames)])
		for e.Step() {
		}
	}
}

func BenchmarkMediumUnicast(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &fakeStation{addr: mac(0), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(1), pos: geo.Pt(5, 0)}
	if err := m.Attach(tx); err != nil {
		b.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		b.Fatal(err)
	}
	f := probeResp(tx.addr, rx.addr, "Bench Net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		if i%256 == 255 {
			e.Run(e.Now() + time.Second)
			rx.received = rx.received[:0]
		}
	}
	e.Run(e.Now() + time.Hour)
}
