package trace

import (
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

func monitorFixture(t *testing.T) (*sim.Engine, *sim.Medium, *Monitor) {
	t.Helper()
	engine := sim.NewEngine()
	medium := sim.NewMedium(engine, 100)
	mon := NewMonitor(engine, ieee80211.MAC{0x0a, 0, 0, 0, 0, 0xfe}, geo.Pt(0, 0))
	if err := medium.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	return engine, medium, mon
}

type beeper struct {
	addr ieee80211.MAC
	pos  geo.Point
}

func (b *beeper) Addr() ieee80211.MAC      { return b.addr }
func (b *beeper) Pos() geo.Point           { return b.pos }
func (b *beeper) Receive(*ieee80211.Frame) {}

func TestMonitorCaptures(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	medium.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: tx.addr, BSSID: ieee80211.BroadcastMAC,
		SSID: "CafeNet",
	})
	medium.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: tx.addr, BSSID: ieee80211.BroadcastMAC,
	})
	engine.Run(time.Second)

	if mon.Len() != 2 {
		t.Fatalf("captured %d frames, want 2", mon.Len())
	}
	entries := mon.Entries()
	if entries[0].SSID != "CafeNet" || entries[0].Subtype != "probe-request" {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[0].At <= 0 || entries[1].At <= entries[0].At {
		t.Errorf("timestamps not increasing: %v %v", entries[0].At, entries[1].At)
	}
	if entries[0].SA != tx.addr.String() {
		t.Errorf("SA = %q", entries[0].SA)
	}
	if entries[0].Len == 0 {
		t.Error("zero frame length")
	}
}

func TestMonitorBounded(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	mon.MaxEntries = 3
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		medium.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC, SA: tx.addr,
		})
	}
	engine.Run(time.Second)
	if mon.Len() != 3 {
		t.Errorf("Len = %d, want 3", mon.Len())
	}
	if mon.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", mon.Dropped)
	}
}

func TestMonitorOnFirstDrop(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	mon.MaxEntries = 2
	fired := 0
	var firedAtDropped int
	mon.OnFirstDrop = func() {
		fired++
		firedAtDropped = mon.Dropped
	}
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		medium.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC, SA: tx.addr,
		})
	}
	engine.Run(time.Second)
	if fired != 1 {
		t.Errorf("OnFirstDrop fired %d times, want exactly once", fired)
	}
	if firedAtDropped != 1 {
		t.Errorf("OnFirstDrop saw Dropped = %d, want 1", firedAtDropped)
	}
	if mon.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", mon.Dropped)
	}
}

func TestFilterAndSummary(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	medium.Transmit(&ieee80211.Frame{Subtype: ieee80211.SubtypeProbeRequest, DA: ieee80211.BroadcastMAC, SA: tx.addr})
	medium.Transmit(&ieee80211.Frame{Subtype: ieee80211.SubtypeDeauth, DA: ieee80211.BroadcastMAC, SA: tx.addr})
	medium.Transmit(&ieee80211.Frame{Subtype: ieee80211.SubtypeDeauth, DA: ieee80211.BroadcastMAC, SA: tx.addr})
	engine.Run(time.Second)

	sum := make(map[string]int)
	for _, e := range mon.Entries() {
		sum[e.Subtype]++
	}
	if len(sum) != 2 || sum["probe-request"] != 1 || sum["deauth"] != 2 {
		t.Errorf("captured subtypes = %v, want one probe-request and two deauths", sum)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	medium.Transmit(&ieee80211.Frame{Subtype: ieee80211.SubtypeProbeRequest, DA: ieee80211.BroadcastMAC, SA: tx.addr})
	engine.Run(time.Second)
	got := mon.Entries()
	got[0].SSID = "mutated"
	if mon.Entries()[0].SSID == "mutated" {
		t.Error("Entries exposes internal slice")
	}
}

// mustMAC and probeEntryFrame are helpers shared with the analysis tests.
func mustMAC(t *testing.T, s string) ieee80211.MAC {
	t.Helper()
	m, err := ieee80211.ParseMAC(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func probeEntryFrame(sa ieee80211.MAC, ssid string) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      sa,
		BSSID:   ieee80211.BroadcastMAC,
		SSID:    ssid,
	}
}
