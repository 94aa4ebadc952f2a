package sim

import (
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

// fakeStation records everything it receives.
type fakeStation struct {
	addr     ieee80211.MAC
	pos      geo.Point
	received []*ieee80211.Frame
	onRecv   func(*ieee80211.Frame)
}

func (s *fakeStation) Addr() ieee80211.MAC { return s.addr }
func (s *fakeStation) Pos() geo.Point      { return s.pos }
func (s *fakeStation) Receive(f *ieee80211.Frame) {
	s.received = append(s.received, f)
	if s.onRecv != nil {
		s.onRecv(f)
	}
}

func mac(b byte) ieee80211.MAC { return ieee80211.MAC{0x02, 0, 0, 0, 0, b} }

func newTestMedium(t *testing.T, radius float64, stations ...*fakeStation) (*Engine, *Medium) {
	t.Helper()
	e := NewEngine()
	m := NewMedium(e, radius)
	for _, s := range stations {
		if err := m.Attach(s); err != nil {
			t.Fatalf("Attach(%v): %v", s.addr, err)
		}
	}
	return e, m
}

func probeReq(sa ieee80211.MAC) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      sa,
		BSSID:   ieee80211.BroadcastMAC,
	}
}

func probeResp(sa, da ieee80211.MAC, ssid string) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      da,
		SA:      sa,
		BSSID:   sa,
		SSID:    ssid,
	}
}

func TestNewMediumRejectsNonPositiveRange(t *testing.T) {
	for _, r := range []float64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMedium(radius %v) did not panic", r)
				}
			}()
			NewMedium(NewEngine(), r)
		}()
	}
}

func TestMediumBroadcastDelivery(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	near := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	far := &fakeStation{addr: mac(3), pos: geo.Pt(100, 0)}
	e, m := newTestMedium(t, 50, tx, near, far)

	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)

	if len(near.received) != 1 {
		t.Errorf("near received %d frames, want 1", len(near.received))
	}
	if len(far.received) != 0 {
		t.Errorf("far received %d frames, want 0", len(far.received))
	}
	if len(tx.received) != 0 {
		t.Errorf("transmitter received own frame")
	}
	if m.FramesSent != 1 || m.FramesDelivered != 1 {
		t.Errorf("sent/delivered = %d/%d, want 1/1", m.FramesSent, m.FramesDelivered)
	}
}

func TestMediumUnicastDelivery(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	other := &fakeStation{addr: mac(3), pos: geo.Pt(10, 10)}
	e, m := newTestMedium(t, 50, tx, dst, other)

	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.Run(time.Second)

	if len(dst.received) != 1 {
		t.Errorf("dst received %d, want 1", len(dst.received))
	}
	if len(other.received) != 0 {
		t.Errorf("bystander received unicast frame")
	}
}

func TestMediumUnicastOutOfRange(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(60, 0)}
	e, m := newTestMedium(t, 50, tx, dst)
	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.Run(time.Second)
	if len(dst.received) != 0 {
		t.Errorf("out-of-range dst received %d frames", len(dst.received))
	}
}

func TestMediumAirtimeDelay(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)

	f := probeResp(tx.addr, dst.addr, "Net")
	var deliveredAt time.Duration
	dst.onRecv = func(*ieee80211.Frame) { deliveredAt = e.Now() }
	done := m.Transmit(f)
	e.Run(time.Second)

	if deliveredAt != f.Airtime() {
		t.Errorf("delivered at %v, want airtime %v", deliveredAt, f.Airtime())
	}
	if done != f.Airtime() {
		t.Errorf("Transmit returned %v, want %v", done, f.Airtime())
	}
}

func TestMediumSerializesTransmitter(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)

	var times []time.Duration
	dst.onRecv = func(*ieee80211.Frame) { times = append(times, e.Now()) }
	const n = 40
	f := probeResp(tx.addr, dst.addr, "SomeNetworkSSID")
	for i := 0; i < n; i++ {
		m.Transmit(f)
	}
	e.Run(time.Minute)

	if len(times) != n {
		t.Fatalf("delivered %d, want %d", len(times), n)
	}
	// Back-to-back frames are spaced exactly one airtime apart.
	for i := 1; i < n; i++ {
		if gap := times[i] - times[i-1]; gap != f.Airtime() {
			t.Fatalf("gap %d = %v, want %v", i, gap, f.Airtime())
		}
	}
	// 40 responses at ~0.25 ms each occupy about the paper's 10 ms window.
	total := times[n-1] - times[0]
	if total < 8*time.Millisecond || total > 13*time.Millisecond {
		t.Errorf("40 responses spanned %v, want ≈10 ms", total)
	}
}

func TestMediumTwoTransmittersIndependent(t *testing.T) {
	a := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	b := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, a, b)

	fa := probeResp(a.addr, b.addr, "A")
	fb := probeResp(b.addr, a.addr, "B")
	m.Transmit(fa)
	m.Transmit(fb)
	e.Run(time.Second)
	// Different transmitters do not queue behind each other.
	if len(a.received) != 1 || len(b.received) != 1 {
		t.Errorf("received a=%d b=%d, want 1/1", len(a.received), len(b.received))
	}
	if m.TxBusyUntil(a.addr) != fa.Airtime() {
		t.Errorf("a busyUntil = %v, want %v", m.TxBusyUntil(a.addr), fa.Airtime())
	}
}

func TestMediumDetachDropsInFlight(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)

	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	m.Detach(dst.addr)
	e.Run(time.Second)
	if len(dst.received) != 0 {
		t.Errorf("detached station received %d frames", len(dst.received))
	}
}

func TestMediumDetachedTransmitterLosesFrame(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)

	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	m.Detach(tx.addr)
	e.Run(time.Second)
	if len(dst.received) != 0 {
		t.Errorf("frame from departed transmitter delivered")
	}
}

func TestMediumAttachDuplicate(t *testing.T) {
	s := &fakeStation{addr: mac(1)}
	_, m := newTestMedium(t, 50, s)
	if err := m.Attach(&fakeStation{addr: mac(1)}); err == nil {
		t.Error("duplicate Attach succeeded")
	}
}

func TestMediumDetachUnknownIsNoop(t *testing.T) {
	_, m := newTestMedium(t, 50)
	m.Detach(mac(9)) // must not panic
	if m.StationCount() != 0 {
		t.Errorf("StationCount = %d", m.StationCount())
	}
}

func TestMediumMovingReceiver(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	e, m := newTestMedium(t, 50, tx, dst)

	// The receiver walks out of range before the frame lands.
	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	dst.pos = geo.Pt(1000, 0)
	e.Run(time.Second)
	if len(dst.received) != 0 {
		t.Errorf("frame delivered to receiver that moved away")
	}
}

func TestMediumCompaction(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	stations := make([]*fakeStation, 200)
	for i := range stations {
		stations[i] = &fakeStation{addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i / 256), byte(i)}}
		if err := m.Attach(stations[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 180; i++ {
		m.Detach(stations[i].addr)
	}
	if m.StationCount() != 20 {
		t.Fatalf("StationCount = %d, want 20", m.StationCount())
	}
	// Remaining stations still reachable after compaction.
	tx := stations[190]
	tx.pos = geo.Pt(0, 0)
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	for i := 180; i < 200; i++ {
		if i == 190 {
			continue
		}
		if len(stations[i].received) != 1 {
			t.Fatalf("station %d received %d frames after compaction", i, len(stations[i].received))
		}
	}
}

func TestMediumReceiveCallbackCanDetach(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	a := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	b := &fakeStation{addr: mac(3), pos: geo.Pt(2, 0)}
	e, m := newTestMedium(t, 50, tx, a, b)

	// a detaches b upon reception; b must then not receive the broadcast.
	a.onRecv = func(*ieee80211.Frame) { m.Detach(b.addr) }
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	if len(b.received) != 0 {
		t.Errorf("b received %d frames after being detached mid-delivery", len(b.received))
	}
}

func TestMediumBroadcastOrderIsAttachOrder(t *testing.T) {
	tx := &fakeStation{addr: mac(9), pos: geo.Pt(0, 0)}
	e, m := newTestMedium(t, 50, tx)
	var got []byte
	for i := byte(1); i <= 5; i++ {
		s := &fakeStation{addr: mac(i), pos: geo.Pt(1, 0)}
		s.onRecv = func(addr ieee80211.MAC) func(*ieee80211.Frame) {
			return func(*ieee80211.Frame) { got = append(got, addr[5]) }
		}(s.addr)
		if err := m.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	for i := range got {
		if got[i] != byte(i+1) {
			t.Fatalf("delivery order %v, want attach order", got)
		}
	}
}

func TestPromiscuousHearsUnicast(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	if err := m.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.Run(time.Second)
	if len(mon.received) != 1 {
		t.Errorf("monitor heard %d unicast frames, want 1", len(mon.received))
	}
	if len(dst.received) != 1 {
		t.Errorf("destination heard %d frames, want 1", len(dst.received))
	}
}

func TestPromiscuousHearsBroadcastOnce(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	e, m := newTestMedium(t, 50, tx)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	if err := m.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	if len(mon.received) != 1 {
		t.Errorf("monitor heard broadcast %d times, want exactly 1", len(mon.received))
	}
}

func TestPromiscuousNotAddressable(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	e, m := newTestMedium(t, 50, tx)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	if err := m.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	m.Transmit(probeResp(tx.addr, mon.addr, "Net"))
	e.Run(time.Second)
	// It still hears the frame — but through monitor mode, exactly once,
	// not through addressing.
	if len(mon.received) != 1 {
		t.Errorf("monitor received %d frames, want 1", len(mon.received))
	}
	if !m.Attached(mon.addr) {
		t.Error("promiscuous station not reported attached")
	}
	m.Detach(mon.addr)
	if m.Attached(mon.addr) {
		t.Error("promiscuous station still attached after Detach")
	}
}

func TestPromiscuousDuplicateMACRejected(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	_, m := newTestMedium(t, 50, tx)
	if err := m.AttachPromiscuous(&fakeStation{addr: mac(1)}); err == nil {
		t.Error("promiscuous attach with duplicate MAC succeeded")
	}
	mon := &fakeStation{addr: mac(9)}
	if err := m.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(&fakeStation{addr: mac(9)}); err == nil {
		t.Error("normal attach over promiscuous MAC succeeded")
	}
}

func TestPromiscuousOutOfRangeHearsNothing(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(500, 0)}
	if err := m.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	m.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.Run(time.Second)
	if len(mon.received) != 0 {
		t.Errorf("distant monitor heard %d frames", len(mon.received))
	}
}

func TestFrameLossTotal(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50, WithFrameLoss(1.0, 1))
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	}
	e.Run(time.Minute)
	if len(rx.received) != 0 {
		t.Errorf("received %d frames at 100%% loss", len(rx.received))
	}
}

func TestFrameLossBroadcastNotRetried(t *testing.T) {
	// Broadcast frames carry no ACK, so loss hits them at face value.
	e := NewEngine()
	m := NewMedium(e, 50, WithFrameLoss(0.5, 2))
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		m.Transmit(probeReq(tx.addr))
	}
	e.Run(time.Hour)
	got := len(rx.received)
	if got < n*40/100 || got > n*60/100 {
		t.Errorf("received %d of %d broadcasts at 50%% loss, want ≈%d", got, n, n/2)
	}
}

func TestFrameLossUnicastRetriesRecover(t *testing.T) {
	// Unicast frames are ACKed and retried up to 7 times: at 50% loss,
	// effective delivery is 1-0.5^8 ≈ 99.6%.
	e := NewEngine()
	m := NewMedium(e, 50, WithFrameLoss(0.5, 2))
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		m.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	}
	e.Run(time.Hour)
	got := len(rx.received)
	if got < n*97/100 {
		t.Errorf("received %d of %d unicasts at 50%% loss with retries, want ≳97%%", got, n)
	}
	if m.FramesRetried == 0 {
		t.Error("no retransmissions counted")
	}
}

func TestFrameLossDeterministic(t *testing.T) {
	run := func() int {
		e := NewEngine()
		m := NewMedium(e, 50, WithFrameLoss(0.3, 7))
		tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
		rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
		if err := m.Attach(tx); err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(rx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			m.Transmit(probeResp(tx.addr, rx.addr, "Net"))
		}
		e.Run(time.Hour)
		return len(rx.received)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same loss seed delivered %d vs %d frames", a, b)
	}
}

func TestSoftEdgeFades(t *testing.T) {
	deliveredAt := func(dist float64) int {
		e := NewEngine()
		m := NewMedium(e, 100, WithSoftEdge(50))
		tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
		rx := &fakeStation{addr: mac(2), pos: geo.Pt(dist, 0)}
		if err := m.Attach(tx); err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(rx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			m.Transmit(probeResp(tx.addr, rx.addr, "Net"))
		}
		e.Run(time.Hour)
		return len(rx.received)
	}
	inside := deliveredAt(30)
	edge := deliveredAt(75)
	outside := deliveredAt(120)
	if inside != 400 {
		t.Errorf("inside inner radius delivered %d/400", inside)
	}
	if edge <= outside || edge >= inside {
		t.Errorf("fade zone delivered %d, want between %d and %d", edge, outside, inside)
	}
	if outside != 0 {
		t.Errorf("outside outer radius delivered %d/400", outside)
	}
}

// tunedStation pins a fake station to a channel.
type tunedStation struct {
	fakeStation
	channel uint8
}

func (s *tunedStation) CurrentChannel() uint8 { return s.channel }

func TestChannelIsolation(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	same := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 6}
	other := &tunedStation{fakeStation: fakeStation{addr: mac(3), pos: geo.Pt(2, 0)}, channel: 11}
	agnostic := &fakeStation{addr: mac(4), pos: geo.Pt(3, 0)}
	for _, s := range []Station{tx, same, other, agnostic} {
		if err := m.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Transmit(probeReq(tx.addr))
	e.Run(time.Second)
	if len(same.received) != 1 {
		t.Errorf("same-channel station received %d", len(same.received))
	}
	if len(other.received) != 0 {
		t.Errorf("other-channel station received %d", len(other.received))
	}
	if len(agnostic.received) != 1 {
		t.Errorf("agnostic station received %d", len(agnostic.received))
	}
}

func TestChannelUnicastWrongChannelRetriesThenDrops(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	rx := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 1}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		t.Fatal(err)
	}
	m.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	e.Run(time.Second)
	if len(rx.received) != 0 {
		t.Errorf("cross-channel unicast delivered %d", len(rx.received))
	}
	if m.FramesRetried == 0 {
		t.Error("no retries for un-ACKed cross-channel unicast")
	}
}

func TestChannelRetrySucceedsAfterReceiverHops(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	rx := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 1}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		t.Fatal(err)
	}
	f := probeResp(tx.addr, rx.addr, "Net")
	m.Transmit(f)
	// The receiver hops onto the transmitter's channel before the retry
	// budget runs out.
	e.Schedule(2*f.Airtime()+time.Microsecond, func() { rx.channel = 6 })
	e.Run(time.Second)
	if len(rx.received) != 1 {
		t.Errorf("retry after hop delivered %d, want 1", len(rx.received))
	}
}
