package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
)

// ChannelTuner is an optional Station extension for radios parked on (or
// hopping between) 802.11 channels. A station that implements it transmits
// and receives only on its current channel; stations that do not are
// channel-agnostic — they hear and reach every channel, which is the right
// model for monitor-mode sniffers and for tests that do not care.
type ChannelTuner interface {
	// CurrentChannel returns the channel the radio is tuned to right now
	// (0 behaves as channel-agnostic).
	CurrentChannel() uint8
}

// Station is anything attached to the medium: clients, attackers,
// legitimate APs.
type Station interface {
	// Addr returns the station's MAC address. It must be unique on the
	// medium and stable for the station's lifetime.
	Addr() ieee80211.MAC
	// Pos returns the station's current position. The medium calls it at
	// frame-delivery time. A station whose position changes while attached
	// must report each change through Medium.Moved — the medium's spatial
	// delivery index relies on it to keep broadcast fan-out exact.
	Pos() geo.Point
	// Receive delivers a frame that arrived at the station's antenna.
	Receive(f *ieee80211.Frame)
}

// Medium is a shared broadcast RF channel. Frames sent by one station are
// delivered, after their airtime, to every other attached station within
// radio range of the transmitter at delivery time. Per-transmitter
// serialization models the half-duplex radio: a station's next frame starts
// only after its previous one finished, which is exactly what limits an
// attacker to ~40 probe responses per 10 ms scan window.
//
// Broadcast delivery iterates stations in attach order, so runs are
// deterministic for a given seed. A spatial hash grid over station
// positions narrows each broadcast to the cells that can contain receivers,
// so fan-out cost scales with local density instead of the total population.
type Medium struct {
	engine *Engine
	rng    rangeModel

	// maxRange is the largest distance at which any receiver can hear a
	// transmitter (the disk radius, or the soft edge's outer radius). It
	// sizes the spatial grid cells and the broadcast candidate query.
	maxRange float64

	// order holds attached stations in attach order; index maps a MAC to
	// its slot in order. Detached slots are nil and recycled lazily, so an
	// ascending slot scan is an attach-order scan.
	order []Station
	index map[ieee80211.MAC]int

	// grid buckets attached stations by position for broadcast delivery,
	// one maxRange-sized cell per range disk; cellKeys caches each slot's
	// current cell.
	grid     *geo.HashGrid
	cellKeys []geo.CellKey
	// scratch is the reusable broadcast candidate buffer. Delivery never
	// nests (events run one at a time and Receive callbacks only schedule
	// future work), so a single buffer is safe.
	scratch []int32
	// mark is the broadcast walk's bitset, one bit per slot of order. It
	// grows lazily like scratch and is all zero between broadcasts.
	mark []uint64
	// compactGen counts station-table compactions. Broadcast loops snapshot
	// it: while it is unchanged, a nil slot check is an exact liveness test
	// for the snapshot they iterate, and the per-receiver map lookup the
	// old implementation paid is skipped entirely.
	compactGen uint64

	// promisc holds monitor-mode stations: they hear every in-range
	// frame regardless of its destination, and are never addressable.
	promisc      []Station
	promiscIndex map[ieee80211.MAC]int

	busyUntil map[ieee80211.MAC]time.Duration

	// deliverPool recycles the frame-delivery events TransmitFrom and the
	// retry paths schedule, so steady-state transmission allocates no
	// per-frame closures.
	deliverPool []*deliverEvent

	// loss is the independent per-delivery drop probability; lossRNG
	// draws for it and for soft-edge reception. needRNG marks models
	// that need draws even without loss.
	loss    float64
	lossRNG *rand.Rand
	needRNG bool

	// FramesSent counts every transmission accepted by the medium.
	FramesSent int
	// FramesDelivered counts every successful delivery to a receiver.
	FramesDelivered int
	// FramesRetried counts unicast retransmissions after a lost frame.
	FramesRetried int

	// Observability handles, indexed by frame subtype; all nil when
	// uninstrumented (nil handles no-op).
	mSent        [16]*obs.Counter
	mDelivered   [16]*obs.Counter
	mLost        [16]*obs.Counter
	mRetried     *obs.Counter
	mCompactions *obs.Counter
	journal      *obs.Journal
}

// meteredSubtypes is every management subtype the model transmits; the
// medium pre-creates one counter set per subtype so the per-frame hot path
// never touches the registry.
var meteredSubtypes = []ieee80211.FrameSubtype{
	ieee80211.SubtypeAssocRequest,
	ieee80211.SubtypeAssocResponse,
	ieee80211.SubtypeProbeRequest,
	ieee80211.SubtypeProbeResponse,
	ieee80211.SubtypeBeacon,
	ieee80211.SubtypeAuth,
	ieee80211.SubtypeDeauth,
}

// Instrument attaches the medium to an observability runtime: per-subtype
// transmit/deliver/loss counters (medium_frames_sent, medium_frames_delivered,
// medium_frames_lost), retry and compaction counters, and — when the
// runtime carries a journal — a frame-loss event per lost unicast frame.
func (m *Medium) Instrument(rt *obs.Runtime) {
	if rt == nil {
		return
	}
	m.journal = rt.Journal
	if rt.Metrics == nil {
		return
	}
	for _, s := range meteredSubtypes {
		m.mSent[s&0xf] = rt.Metrics.Counter("medium_frames_sent", "subtype", s.String())
		m.mDelivered[s&0xf] = rt.Metrics.Counter("medium_frames_delivered", "subtype", s.String())
		m.mLost[s&0xf] = rt.Metrics.Counter("medium_frames_lost", "subtype", s.String())
	}
	m.mRetried = rt.Metrics.Counter("medium_frames_retried")
	m.mCompactions = rt.Metrics.Counter("medium_compactions")
}

// rangeModel decides whether a receiver hears a transmitter. prob returns
// the reception probability at the given geometry (0, 1, or in between for
// soft-edge models).
type rangeModel interface {
	prob(tx, rx geo.Point) float64
}

// diskRange is the unit-disk model: reception succeeds within radius metres.
type diskRange struct{ radius float64 }

func (d diskRange) prob(tx, rx geo.Point) float64 {
	if tx.Dist2(rx) <= d.radius*d.radius {
		return 1
	}
	return 0
}

// softEdgeRange receives perfectly inside inner, fades linearly to zero at
// outer — a crude but useful stand-in for the fuzzy cell edge of a real
// radio.
type softEdgeRange struct{ inner, outer float64 }

func (s softEdgeRange) prob(tx, rx geo.Point) float64 {
	d2 := tx.Dist2(rx)
	if d2 <= s.inner*s.inner {
		return 1
	}
	if d2 >= s.outer*s.outer {
		return 0
	}
	d := tx.Dist(rx)
	return 1 - (d-s.inner)/(s.outer-s.inner)
}

// MediumOption customises NewMedium.
type MediumOption interface{ applyMedium(*Medium) }

type mediumOptionFunc func(*Medium)

func (f mediumOptionFunc) applyMedium(m *Medium) { f(m) }

// WithFrameLoss drops each frame delivery independently with probability p
// (collisions, fading, interference). Draws come from the given seed, so
// lossy runs stay reproducible.
func WithFrameLoss(p float64, seed int64) MediumOption {
	return mediumOptionFunc(func(m *Medium) {
		m.loss = p
		m.lossRNG = rand.New(rand.NewSource(seed))
	})
}

// WithSoftEdge replaces the unit disk with a fading edge: perfect
// reception inside inner metres, fading to zero at the medium's radius.
func WithSoftEdge(inner float64) MediumOption {
	return mediumOptionFunc(func(m *Medium) {
		if d, ok := m.rng.(diskRange); ok && inner < d.radius {
			m.rng = softEdgeRange{inner: inner, outer: d.radius}
			m.needRNG = true
		}
	})
}

// NewMedium returns a medium on engine where stations hear each other
// within radius metres (unit-disk propagation by default). The paper's
// Raspberry Pi at 100 mW covers roughly a 50 m disk in open indoor space.
// radius must be positive; NewMedium panics otherwise (callers validate
// venue ranges before building a medium).
func NewMedium(engine *Engine, radius float64, opts ...MediumOption) *Medium {
	// One cell per range disk: a 3×3 neighborhood always covers the
	// transmitter's reach, and typical venues keep the crowd within a
	// handful of cells.
	grid, err := geo.NewHashGrid(radius)
	if err != nil {
		panic(fmt.Sprintf("sim: radio range %v must be positive", radius))
	}
	m := &Medium{
		engine:       engine,
		rng:          diskRange{radius: radius},
		maxRange:     radius,
		grid:         grid,
		index:        make(map[ieee80211.MAC]int),
		promiscIndex: make(map[ieee80211.MAC]int),
		busyUntil:    make(map[ieee80211.MAC]time.Duration),
	}
	for _, o := range opts {
		o.applyMedium(m)
	}
	if (m.loss > 0 || m.needRNG) && m.lossRNG == nil {
		m.lossRNG = rand.New(rand.NewSource(1))
	}
	return m
}

// receives draws whether one delivery succeeds given geometry and loss.
// A frame that was in range (reception probability > 0) but failed the draw
// counts as lost under the given subtype.
func (m *Medium) receives(tx, rx geo.Point, sub ieee80211.FrameSubtype) bool {
	p := m.rng.prob(tx, rx)
	if p <= 0 {
		return false
	}
	if m.loss > 0 {
		p *= 1 - m.loss
	}
	if p < 1 && (m.lossRNG == nil || m.lossRNG.Float64() >= p) {
		m.mLost[sub&0xf].Inc()
		return false
	}
	return true
}

// Attach registers s on the medium. Attaching a MAC twice is a programming
// error and returns one.
func (m *Medium) Attach(s Station) error {
	if err := m.checkNew(s.Addr()); err != nil {
		return err
	}
	i := len(m.order)
	m.index[s.Addr()] = i
	m.order = append(m.order, s)
	m.cellKeys = append(m.cellKeys, m.grid.Insert(int32(i), s.Pos()))
	return nil
}

// AttachPromiscuous registers s as a monitor-mode station: it receives
// every frame whose transmitter is in range — unicast or broadcast, to
// anyone — exactly like a sniffer in monitor mode. Promiscuous stations
// are not addressable (frames sent to their MAC go nowhere) and should not
// transmit.
func (m *Medium) AttachPromiscuous(s Station) error {
	if err := m.checkNew(s.Addr()); err != nil {
		return err
	}
	m.promiscIndex[s.Addr()] = len(m.promisc)
	m.promisc = append(m.promisc, s)
	return nil
}

func (m *Medium) checkNew(addr ieee80211.MAC) error {
	if _, dup := m.index[addr]; dup {
		return fmt.Errorf("sim: station %v already attached", addr)
	}
	if _, dup := m.promiscIndex[addr]; dup {
		return fmt.Errorf("sim: station %v already attached promiscuously", addr)
	}
	return nil
}

// Detach removes the station with the given address; frames already in
// flight to it are dropped at delivery time. Detaching an unknown address
// is a no-op so departing clients can detach unconditionally.
func (m *Medium) Detach(addr ieee80211.MAC) {
	if pi, ok := m.promiscIndex[addr]; ok {
		m.promisc[pi] = nil
		delete(m.promiscIndex, addr)
		return
	}
	i, ok := m.index[addr]
	if !ok {
		return
	}
	m.grid.Remove(int32(i), m.cellKeys[i])
	m.order[i] = nil
	delete(m.index, addr)
	delete(m.busyUntil, addr)
	m.maybeCompact()
}

// Moved re-buckets a station in the spatial delivery index after its
// position changed. Every station whose position changes while attached
// must call it (or be moved through it); a stale bucket can hide the
// station from broadcasts it should hear. Unknown addresses are a no-op,
// so movers may report unconditionally — before Attach, after Detach, or
// for promiscuous stations (which are not spatially indexed).
func (m *Medium) Moved(addr ieee80211.MAC) {
	i, ok := m.index[addr]
	if !ok {
		return
	}
	m.cellKeys[i] = m.grid.Move(int32(i), m.cellKeys[i], m.order[i].Pos())
}

// maybeCompact rebuilds the order slice once more than half its slots are
// tombstones, preserving attach order. The spatial index is rebuilt with
// the new slot numbering, and the compaction generation bump tells any
// broadcast loop in progress to stop trusting its pre-compaction snapshot.
func (m *Medium) maybeCompact() {
	if len(m.order) < 64 || len(m.index)*2 > len(m.order) {
		return
	}
	m.mCompactions.Inc()
	m.compactGen++
	compact := make([]Station, 0, len(m.index))
	for _, s := range m.order {
		if s != nil {
			compact = append(compact, s)
		}
	}
	m.order = compact
	m.grid, _ = geo.NewHashGrid(m.maxRange)
	m.cellKeys = m.cellKeys[:0]
	for i, s := range m.order {
		m.index[s.Addr()] = i
		m.cellKeys = append(m.cellKeys, m.grid.Insert(int32(i), s.Pos()))
	}
}

// Attached reports whether addr is currently on the medium (in either
// normal or monitor mode).
func (m *Medium) Attached(addr ieee80211.MAC) bool {
	if _, ok := m.index[addr]; ok {
		return true
	}
	_, ok := m.promiscIndex[addr]
	return ok
}

// StationCount returns the number of attached stations.
func (m *Medium) StationCount() int { return len(m.index) }

// Transmit queues f for transmission by the station with MAC f.SA. The
// frame goes on air once the transmitter's previous frame has finished
// (half-duplex serialization) and is delivered after its airtime to every
// in-range station — to the unicast destination only, or to everyone for
// broadcast destinations. Transmit returns the time the frame will finish
// transmitting.
func (m *Medium) Transmit(f *ieee80211.Frame) time.Duration {
	return m.TransmitFrom(f.SA, f)
}

// TransmitFrom is Transmit with an explicit physical transmitter, which may
// differ from the frame's SA: spoofed frames (the deauthentication attack
// forges the legitimate AP's address) radiate from the spoofer's radio, so
// range and airtime are charged to the spoofer.
func (m *Medium) TransmitFrom(tx ieee80211.MAC, f *ieee80211.Frame) time.Duration {
	// The PHY channel is pinned at transmit time: if the transmitter
	// hops before the frame lands, the tail still went out on the old
	// channel.
	txCh := m.channelOf(tx)
	start := m.engine.Now()
	if busy := m.busyUntil[tx]; busy > start {
		start = busy
	}
	done := start + f.Airtime()
	m.busyUntil[tx] = done
	m.FramesSent++
	m.mSent[f.Subtype&0xf].Inc()

	m.scheduleDeliver(done, tx, txCh, f, unicastRetryLimit)
	return done
}

// deliverEvent is a pooled frame-delivery callback. One sits on the engine
// queue per in-flight transmission or retry; executing it returns the event
// to the medium's pool before the delivery runs, so the delivery itself may
// immediately recycle it for a retry. The bound run closure is allocated
// once per pool entry and reused for every schedule.
type deliverEvent struct {
	m           *Medium
	tx          ieee80211.MAC
	txCh        uint8
	f           *ieee80211.Frame
	retriesLeft int
	run         func()
}

// scheduleDeliver queues a delivery of f at absolute time at, reusing a
// pooled event when one is free.
func (m *Medium) scheduleDeliver(at time.Duration, tx ieee80211.MAC, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	var de *deliverEvent
	if n := len(m.deliverPool); n > 0 {
		de = m.deliverPool[n-1]
		m.deliverPool[n-1] = nil
		m.deliverPool = m.deliverPool[:n-1]
	} else {
		de = &deliverEvent{m: m}
		de.run = de.exec
	}
	de.tx, de.txCh, de.f, de.retriesLeft = tx, txCh, f, retriesLeft
	m.engine.At(at, de.run)
}

func (de *deliverEvent) exec() {
	m, tx, txCh, f, retries := de.m, de.tx, de.txCh, de.f, de.retriesLeft
	de.f = nil // drop the frame reference while pooled
	m.deliverPool = append(m.deliverPool, de)
	m.deliver(tx, txCh, f, retries)
}

// channelOf returns a station's current channel, or 0 (agnostic) when the
// station is unknown or untuned.
func (m *Medium) channelOf(addr ieee80211.MAC) uint8 {
	if i, ok := m.index[addr]; ok {
		if t, ok := m.order[i].(ChannelTuner); ok {
			return t.CurrentChannel()
		}
	}
	return 0
}

// sameChannel reports whether a transmission on txCh reaches a receiver;
// channel 0 on either side is agnostic.
func sameChannel(txCh uint8, rx Station) bool {
	if txCh == 0 {
		return true
	}
	t, ok := rx.(ChannelTuner)
	if !ok {
		return true
	}
	rxCh := t.CurrentChannel()
	return rxCh == 0 || rxCh == txCh
}

// unicastRetryLimit is the 802.11 long retry limit: unicast frames are
// ACKed, and a lost one is retransmitted up to this many times. Broadcast
// frames are never retried, per the standard.
const unicastRetryLimit = 7

// TxBusyUntil returns when the given transmitter's queue drains; before
// that time any new Transmit will be queued behind earlier frames.
func (m *Medium) TxBusyUntil(addr ieee80211.MAC) time.Duration {
	return m.busyUntil[addr]
}

func (m *Medium) deliver(tx ieee80211.MAC, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	ti, ok := m.index[tx]
	if !ok {
		// Transmitter departed mid-flight: the tail of its transmission
		// is lost.
		return
	}
	txPos := m.order[ti].Pos()
	gen := m.compactGen

	// Monitor-mode stations hear everything in range, first — their
	// detectors may inform decisions other receivers make later in the
	// same instant.
	for _, rx := range m.promisc {
		if rx == nil || rx.Addr() == tx {
			continue
		}
		if sameChannel(txCh, rx) && m.receives(txPos, rx.Pos(), f.Subtype) {
			rx.Receive(f)
		}
	}

	if f.DA.IsBroadcast() {
		if m.compactGen != gen || m.order[ti] == nil {
			// A monitor's Receive detached the transmitter or compacted
			// the table: re-resolve its slot, -1 once it is gone.
			if ti, ok = m.index[tx]; !ok {
				ti = -1
			}
		}
		m.deliverBroadcast(ti, txPos, txCh, f)
		return
	}
	ri, ok := m.index[f.DA]
	if !ok {
		return
	}
	rx := m.order[ri]
	rxPos := rx.Pos()
	if !sameChannel(txCh, rx) {
		// Wrong channel: no ACK, so the transmitter retries exactly as
		// for a lost frame (which is what a real radio observes).
		if retriesLeft > 0 {
			m.FramesRetried++
			m.mRetried.Inc()
			m.scheduleDeliver(m.engine.Now()+f.Airtime(), tx, txCh, f, retriesLeft-1)
		}
		return
	}
	if m.receives(txPos, rxPos, f.Subtype) {
		m.FramesDelivered++
		m.mDelivered[f.Subtype&0xf].Inc()
		rx.Receive(f)
		return
	}
	if m.journal != nil && m.rng.prob(txPos, rxPos) > 0 {
		m.journal.Record(m.engine.Now(), obs.EventFrameLoss, tx.String(),
			fmt.Sprintf("%s to %s lost, %d retries left", f.Subtype, f.DA, retriesLeft))
	}
	// A unicast frame in range but lost draws no ACK; the transmitter
	// retries after another airtime, up to the 802.11 retry limit.
	if retriesLeft > 0 && m.rng.prob(txPos, rxPos) > 0 {
		m.FramesRetried++
		m.mRetried.Inc()
		m.scheduleDeliver(m.engine.Now()+f.Airtime(), tx, txCh, f, retriesLeft-1)
	}
}

// deliverBroadcast fans f out to every in-range station but the
// transmitter, whose slot is ti, in attach order. Only stations bucketed in
// the grid cells the transmitter can reach are visited. Each candidate sets
// its slot's bit in mark, and the walk then reads the touched words from
// lowest to highest, clearing each as it goes. A station sits in one cell,
// so no slot repeats, and ascending slot order IS attach order: the delivery
// sequence (and thus every RNG draw) is that of a scan over all attached
// stations, at the cost of the candidates plus the touched span / 64.
func (m *Medium) deliverBroadcast(ti int, txPos geo.Point, txCh uint8, f *ieee80211.Frame) {
	order := m.order
	cands := m.grid.AppendNeighborhood(m.scratch[:0], txPos, m.maxRange)
	m.scratch = cands
	if len(cands) == 0 {
		return
	}
	if n := (len(order) + 63) / 64; len(m.mark) < n {
		m.mark = append(m.mark, make([]uint64, n-len(m.mark))...)
	}
	mark := m.mark
	lo, hi := len(mark), 0
	for _, i := range cands {
		w := int(i >> 6)
		mark[w] |= 1 << (i & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	gen := m.compactGen
	for w := lo; w <= hi; w++ {
		word := mark[w]
		mark[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			rx := order[i]
			if rx == nil || i == ti {
				continue
			}
			if m.compactGen != gen {
				// A Receive callback compacted the station table: the slots
				// of our pre-compaction snapshot are no longer nilled on
				// detach, so fall back to the authoritative liveness map for
				// the rest of this fan-out.
				if _, live := m.index[rx.Addr()]; !live {
					continue
				}
			}
			if sameChannel(txCh, rx) && m.receives(txPos, rx.Pos(), f.Subtype) {
				m.FramesDelivered++
				m.mDelivered[f.Subtype&0xf].Inc()
				rx.Receive(f)
			}
		}
	}
}
