// Package client models smartphones: the scan cycle (broadcast and directed
// probe requests), the probe-response listening window with its ~40-response
// budget, the open-network auto-join handshake (authentication followed by
// association), connected-state probe suppression, and reaction to
// deauthentication.
//
// The model matches the behaviour the paper's attack exploits:
//
//   - ~85 % of phones send only wildcard (broadcast) probes; the unsafe
//     minority also direct-probes every non-hidden PNL entry.
//   - After a probe, a phone waits 10 ms for a first response and keeps
//     listening at most 10 ms after one arrives, which caps the responses
//     it can hear from one AP at about 40 per scan.
//   - A probe response advertising an open network whose SSID is an open
//     entry in the phone's PNL triggers automatic association.
//   - Once associated, a phone stops probing until it is deauthenticated.
package client

import (
	"fmt"
	"math/rand"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// State is the client's connection state.
type State int

// Client states.
const (
	// StateIdle means created but not yet started.
	StateIdle State = iota + 1
	// StateScanning means probing periodically.
	StateScanning
	// StateAssociating means mid-handshake with a responder.
	StateAssociating
	// StateConnected means associated (to the attacker or a genuine AP).
	StateConnected
	// StateDeparted means the phone left the area and was detached.
	StateDeparted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateScanning:
		return "scanning"
	case StateAssociating:
		return "associating"
	case StateConnected:
		return "connected"
	case StateDeparted:
		return "departed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config describes one phone.
type Config struct {
	// MAC is the phone's stable identity. Without randomization it is also
	// the over-the-air source MAC; under a RandomizationPolicy it seeds the
	// deterministic rotation sequence and never appears on the air after
	// the first rotation.
	MAC ieee80211.MAC
	// PNL is the phone's preferred network list.
	PNL pnl.List
	// DirectProber marks the unsafe minority that discloses PNL entries
	// in directed probes.
	DirectProber bool
	// ScanInterval is the gap between scan cycles while disconnected.
	// The first scan starts after a uniform random fraction of it.
	ScanInterval time.Duration
	// PreconnectedBSSID, when non-zero, starts the phone associated to a
	// genuine AP with that BSSID: it will not probe until it receives a
	// deauthentication from that BSSID (the §V-B scenario).
	PreconnectedBSSID ieee80211.MAC
	// RescanAfterDeauth is the delay before the first scan after losing
	// an association.
	RescanAfterDeauth time.Duration
	// CanaryProbing arms the client-side evil-twin countermeasure: every
	// scan also directs a probe at a random nonexistent SSID, and any
	// responder that mimics it is marked hostile and ignored from then
	// on. This is the classic KARMA detector; see internal/detect.
	CanaryProbing bool
	// Randomization selects when the over-the-air MAC rotates; see
	// RandomizationPolicy. Rotated MACs are derived from the identity MAC
	// by counter (ieee80211.DerivedRandomMAC), so rotation consumes no RNG
	// and a suspended phone resumes its sequence exactly.
	Randomization RandomizationPolicy
	// RandomizeEvery is the rotation period for RandomizeTimed; zero means
	// DefaultRandomizeEvery.
	RandomizeEvery time.Duration
	// Fingerprint is the condensed IE fingerprint stamped on every probe
	// request this phone sends (zero = indistinct, nothing on the wire).
	// It survives MAC rotation, which is exactly what fingerprint-based
	// re-linking exploits.
	Fingerprint uint32
	// ScanChannels is the channel sequence visited per scan; nil selects
	// ieee80211.DefaultScanChannels (1, 6, 11). Each channel gets its own
	// probe and listening window, as real scanning firmware does.
	ScanChannels []uint8
	// Obs, when non-nil with a Trace, renders the phone's scan cycles as
	// spans and its association as an instant on a per-client track.
	Obs *obs.Runtime
}

// DefaultScanInterval is a typical disconnected-phone scan period (modern
// OSes scan roughly once a minute with the screen off).
const DefaultScanInterval = 60 * time.Second

// defaultRescanAfterDeauth is used when Config.RescanAfterDeauth is zero.
const defaultRescanAfterDeauth = 2 * time.Second

// handshakeTimeout bounds each step of the auth/assoc exchange.
const handshakeTimeout = 100 * time.Millisecond

// Client is one simulated phone attached to the medium.
type Client struct {
	cfg    Config
	engine *sim.Engine
	medium *sim.Medium
	rng    *rand.Rand

	state State
	pos   geo.Point
	seq   uint16
	arena ieee80211.FrameArena

	// mac is the current over-the-air source MAC; it starts as the
	// identity MAC (cfg.MAC) and moves along the derived rotation sequence
	// under a randomization policy.
	mac          ieee80211.MAC
	rotations    uint32
	nextRotateAt time.Duration
	usedMACs     []ieee80211.MAC

	// curChannel is the tuned channel (0 = agnostic, e.g. while
	// associated to a channel-agnostic test responder).
	curChannel  uint8
	scanChanIdx int

	// scanEpoch invalidates stale window/timeout events.
	scanEpoch int
	// window state for the current scan.
	windowOpen     bool
	firstRespAt    time.Duration
	responses      []*ieee80211.Frame
	responsesHeard int

	// association state.
	peer     ieee80211.MAC
	joinSSID string
	hsEpoch  int
	hsStep   int

	// countermeasure state.
	canarySSID string
	hostile    map[ieee80211.MAC]bool

	// observability state: the span track and the running scan's start.
	trace     *obs.Trace
	tid       int
	scanStart time.Duration

	// Stats exposes what the experiment harness needs.
	Stats Stats
}

// Stats are the per-client counters the experiments aggregate.
type Stats struct {
	// Scans counts full scan cycles (all channels).
	Scans int
	// BroadcastProbes and DirectProbes count probe requests sent (one
	// broadcast probe per channel per scan).
	BroadcastProbes int
	DirectProbes    int
	// ResponsesHeard counts probe responses accepted within windows.
	ResponsesHeard int
	// Connected reports whether the phone ever associated, to whom, via
	// which SSID, and when.
	Connected    bool
	ConnectedTo  ieee80211.MAC
	ConnectedVia string
	ConnectedAt  time.Duration
	// Deauths counts deauthentications received while associated.
	Deauths int
	// CanaryDetections counts evil twins unmasked by canary probes.
	CanaryDetections int
}

// New builds a client. Start must be called to attach it to the medium.
func New(engine *sim.Engine, medium *sim.Medium, rng *rand.Rand, cfg Config) (*Client, error) {
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = DefaultScanInterval
	}
	if cfg.RescanAfterDeauth <= 0 {
		cfg.RescanAfterDeauth = defaultRescanAfterDeauth
	}
	if cfg.MAC == (ieee80211.MAC{}) {
		return nil, fmt.Errorf("client: zero MAC")
	}
	if cfg.Randomization == RandomizeTimed && cfg.RandomizeEvery <= 0 {
		cfg.RandomizeEvery = DefaultRandomizeEvery
	}
	return &Client{
		cfg:    cfg,
		engine: engine,
		medium: medium,
		rng:    rng,
		state:  StateIdle,
		mac:    cfg.MAC,
	}, nil
}

// Addr implements sim.Station with the current over-the-air MAC.
func (c *Client) Addr() ieee80211.MAC { return c.mac }

// TrueAddr returns the phone's stable identity MAC, which never changes
// across rotations. Ground-truth accounting keys on it.
func (c *Client) TrueAddr() ieee80211.MAC { return c.cfg.MAC }

// UsedMACs returns every MAC the phone has appeared under, in first-use
// order: the identity MAC (if it ever went on the air) followed by each
// rotation. The scenario runner builds the linker ground truth from it.
func (c *Client) UsedMACs() []ieee80211.MAC { return c.usedMACs }

// Rotations returns how many MAC rotations the phone has performed.
func (c *Client) Rotations() uint32 { return c.rotations }

// Pos implements sim.Station.
func (c *Client) Pos() geo.Point { return c.pos }

// SetPos moves the phone; mobility models call this. The medium's spatial
// delivery index is notified so broadcasts keep finding the phone (a no-op
// while the phone is not attached).
func (c *Client) SetPos(p geo.Point) {
	c.pos = p
	c.medium.Moved(c.Addr())
}

// CurrentChannel implements sim.ChannelTuner.
func (c *Client) CurrentChannel() uint8 { return c.curChannel }

// channels returns the configured scan sequence.
func (c *Client) channels() []uint8 {
	if len(c.cfg.ScanChannels) > 0 {
		return c.cfg.ScanChannels
	}
	return ieee80211.DefaultScanChannels
}

// State returns the current connection state.
func (c *Client) State() State { return c.state }

// DirectProber reports whether this phone discloses PNL entries.
func (c *Client) DirectProber() bool { return c.cfg.DirectProber }

// TraceTID returns the client's span-trace track id, 0 when untraced. The
// scenario runner uses it to put lifecycle spans on the same track as the
// client's own scan spans.
func (c *Client) TraceTID() int { return c.tid }

// PNL returns the phone's preferred network list.
func (c *Client) PNL() pnl.List { return c.cfg.PNL }

// Start attaches the phone to the medium and schedules its first scan.
func (c *Client) Start() error {
	if c.state != StateIdle {
		return fmt.Errorf("client %v: Start in state %v", c.Addr(), c.state)
	}
	if err := c.medium.Attach(c); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.cfg.Obs != nil && c.cfg.Obs.Trace != nil {
		c.trace = c.cfg.Obs.Trace
		c.tid = c.trace.Track("client " + c.cfg.MAC.String())
	}
	c.usedMACs = append(c.usedMACs, c.mac)
	if c.cfg.PreconnectedBSSID != (ieee80211.MAC{}) {
		c.state = StateConnected
		c.peer = c.cfg.PreconnectedBSSID
		return nil
	}
	c.state = StateScanning
	first := time.Duration(c.rng.Int63n(int64(c.cfg.ScanInterval)))
	c.scheduleScan(first)
	return nil
}

// Depart removes the phone from the medium; all pending events become
// no-ops.
func (c *Client) Depart() {
	if c.state == StateDeparted {
		return
	}
	c.state = StateDeparted
	c.scanEpoch++
	c.hsEpoch++
	c.medium.Detach(c.Addr())
}

// scheduleScan queues a scan after the given delay. Stale events cancel
// themselves: every executed scan bumps scanEpoch, so when both a periodic
// tick and a fast post-deauth rescan are pending, whichever fires first
// performs the scan and the other becomes a no-op.
func (c *Client) scheduleScan(after time.Duration) {
	epoch := c.scanEpoch
	c.engine.Schedule(after, func() {
		if epoch != c.scanEpoch || c.state != StateScanning {
			return
		}
		c.scan()
	})
}

// scan runs one probe cycle: every channel in the scan sequence gets a
// probe burst and its own listening window; the collected responses are
// evaluated once the last channel's window closes, the way real scanning
// firmware assembles scan results before network selection.
func (c *Client) scan() {
	switch c.cfg.Randomization {
	case RandomizePerScan:
		c.rotateMAC()
	case RandomizeTimed:
		if now := c.engine.Now(); now >= c.nextRotateAt {
			c.rotateMAC()
			c.nextRotateAt = now + c.cfg.RandomizeEvery
		}
	}
	if c.state == StateDeparted {
		return // rotation collided twice; the phone fell off the air
	}
	c.scanEpoch++
	c.responses = c.responses[:0]
	c.responsesHeard = 0
	c.scanChanIdx = 0
	c.Stats.Scans++
	c.scanStart = c.engine.Now()
	if c.cfg.CanaryProbing {
		// One canary SSID per scan, probed on every channel; a mimicking
		// attacker on any channel unmasks itself before its lure batch
		// is evaluated.
		c.canarySSID = fmt.Sprintf("canary-%08x", c.rng.Uint32())
	}
	c.scheduleNextScanTick()
	c.scanChannel()
}

// scanChannel probes and listens on the current channel of the sequence.
func (c *Client) scanChannel() {
	if c.cfg.Randomization == RandomizePerBurst {
		c.rotateMAC()
		if c.state == StateDeparted {
			return
		}
	}
	epoch := c.scanEpoch
	c.curChannel = c.channels()[c.scanChanIdx]
	c.windowOpen = true
	c.firstRespAt = -1

	if c.cfg.CanaryProbing {
		c.medium.Transmit(c.frame(ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC,
			BSSID:   ieee80211.BroadcastMAC,
			SSID:    c.canarySSID,
		}))
	}
	if c.cfg.DirectProber {
		for _, ssid := range c.cfg.PNL.Probeable() {
			c.medium.Transmit(c.frame(ieee80211.Frame{
				Subtype: ieee80211.SubtypeProbeRequest,
				DA:      ieee80211.BroadcastMAC,
				BSSID:   ieee80211.BroadcastMAC,
				SSID:    ssid,
			}))
			c.Stats.DirectProbes++
		}
	}
	// The broadcast probe goes out last; its completion time anchors the
	// listening window.
	lastDone := c.medium.Transmit(c.frame(ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		BSSID:   ieee80211.BroadcastMAC,
	}))
	c.Stats.BroadcastProbes++

	// The channel dwell ends MinChannelTime after the last probe finished
	// unless a response arrives first; then it ends MaxChannelTime after
	// the first response.
	c.engine.At(lastDone+ieee80211.MinChannelTime, func() {
		if epoch != c.scanEpoch || !c.windowOpen {
			return
		}
		if c.firstRespAt < 0 {
			c.advanceChannel(epoch)
		}
		// Otherwise the extension event closes this channel's window.
	})
}

// advanceChannel ends the current channel's window and either hops to the
// next channel or, after the last one, evaluates the scan results.
func (c *Client) advanceChannel(epoch int) {
	if epoch != c.scanEpoch || c.state != StateScanning {
		return
	}
	c.windowOpen = false
	c.scanChanIdx++
	if c.scanChanIdx < len(c.channels()) {
		c.scanChannel()
		return
	}
	c.evaluateScan()
}

func (c *Client) scheduleNextScanTick() {
	// Jittered periodic scan: ±20 % around the configured interval.
	jitter := 0.8 + 0.4*c.rng.Float64()
	c.scheduleScan(time.Duration(float64(c.cfg.ScanInterval) * jitter))
}

// rotateMAC re-keys the client under the next MAC of its derived rotation
// sequence, the privacy behaviour of modern unassociated phones. The
// derivation consumes no RNG, so enabling a policy perturbs nothing else in
// a seeded run. On the (astronomically unlikely) collision with an existing
// station, the old MAC is kept for this burst.
func (c *Client) rotateMAC() {
	fresh := ieee80211.DerivedRandomMAC(c.cfg.MAC, c.rotations)
	c.rotations++
	old := c.mac
	c.medium.Detach(old)
	c.mac = fresh
	if err := c.medium.Attach(c); err != nil {
		c.mac = old
		// Re-attach under the old identity; this cannot collide because
		// we just vacated it.
		if err := c.medium.Attach(c); err != nil {
			// The medium rejected both identities: the client is
			// effectively off the air. Leave it detached.
			c.state = StateDeparted
		}
		return
	}
	c.usedMACs = append(c.usedMACs, fresh)
}

// frame stamps addressing, sequence numbers and the probe fingerprint on a
// template. The sequence counter advances per frame regardless of MAC
// rotations — the continuity the sequence-number linker exploits.
func (c *Client) frame(f ieee80211.Frame) *ieee80211.Frame {
	f.SA = c.mac
	c.seq = (c.seq + 1) & 0x0fff
	f.Seq = c.seq
	if f.Subtype == ieee80211.SubtypeProbeRequest {
		f.Fingerprint = c.cfg.Fingerprint
	}
	return c.arena.New(f)
}

// Receive implements sim.Station.
func (c *Client) Receive(f *ieee80211.Frame) {
	switch f.Subtype {
	case ieee80211.SubtypeProbeResponse:
		c.onProbeResponse(f)
	case ieee80211.SubtypeBeacon:
		// Passive scanning: beacons heard during a scan window enter the
		// scan results exactly like probe responses — this is what the
		// wifiphisher-style "known beacons" attack relies on.
		c.onProbeResponse(f)
	case ieee80211.SubtypeAuth:
		c.onAuth(f)
	case ieee80211.SubtypeAssocResponse:
		c.onAssocResponse(f)
	case ieee80211.SubtypeDeauth:
		c.onDeauth(f)
	}
}

func (c *Client) onProbeResponse(f *ieee80211.Frame) {
	if f.DA != c.mac && !f.DA.IsBroadcast() {
		return
	}
	if c.canarySSID != "" && f.SSID == c.canarySSID && !c.hostile[f.SA] {
		// Nobody legitimate knows this SSID: the responder is an evil
		// twin. Ignore it for the rest of this client's stay.
		if c.hostile == nil {
			c.hostile = make(map[ieee80211.MAC]bool)
		}
		c.hostile[f.SA] = true
		c.Stats.CanaryDetections++
		return
	}
	if c.hostile[f.SA] {
		return
	}
	if !c.windowOpen || c.state != StateScanning {
		return
	}
	if c.responsesHeard >= ieee80211.MaxResponsesPerScan {
		return // listening budget exhausted for this scan
	}
	c.responsesHeard++
	c.Stats.ResponsesHeard++
	if c.firstRespAt < 0 {
		c.firstRespAt = c.engine.Now()
		epoch := c.scanEpoch
		idx := c.scanChanIdx
		c.engine.Schedule(ieee80211.MaxChannelTime, func() {
			if epoch == c.scanEpoch && idx == c.scanChanIdx && c.windowOpen {
				c.advanceChannel(epoch)
			}
		})
	}
	c.responses = append(c.responses, f)
}

// evaluateScan inspects every response collected across the scan's
// channels and begins association with the first one matching an open PNL
// entry.
func (c *Client) evaluateScan() {
	c.windowOpen = false
	if c.trace != nil {
		c.trace.Span("scan", "scan", c.tid, c.scanStart, c.engine.Now(),
			map[string]any{"responses": c.responsesHeard})
	}
	for _, f := range c.responses {
		if c.hostile[f.SA] {
			// Unmasked after this response was buffered.
			continue
		}
		if f.Capability.Privacy() {
			// The twin claims an encrypted network; auto-join would
			// need credentials the attacker cannot complete.
			continue
		}
		if c.cfg.PNL.OpenSSID(f.SSID) {
			if f.Channel != 0 {
				c.curChannel = f.Channel
			}
			c.associate(f.SA, f.SSID)
			return
		}
	}
}

// associate starts the auth/assoc handshake with peer for ssid, tuning to
// the responder's channel as a real client does before authenticating.
func (c *Client) associate(peer ieee80211.MAC, ssid string) {
	c.state = StateAssociating
	c.peer = peer
	c.joinSSID = ssid
	c.hsEpoch++
	c.hsStep = 1
	c.medium.Transmit(c.frame(ieee80211.Frame{
		Subtype:       ieee80211.SubtypeAuth,
		DA:            peer,
		BSSID:         peer,
		AuthAlgorithm: ieee80211.AuthOpenSystem,
		AuthSeq:       1,
	}))
	c.armHandshakeTimeout()
}

func (c *Client) armHandshakeTimeout() {
	epoch, step := c.hsEpoch, c.hsStep
	c.engine.Schedule(handshakeTimeout, func() {
		if c.hsEpoch == epoch && c.hsStep == step && c.state == StateAssociating {
			// Handshake stalled; resume scanning.
			c.state = StateScanning
			c.scheduleScan(c.cfg.RescanAfterDeauth)
		}
	})
}

func (c *Client) onAuth(f *ieee80211.Frame) {
	if c.state != StateAssociating || f.SA != c.peer || c.hsStep != 1 {
		return
	}
	if f.Status != ieee80211.StatusSuccess || f.AuthSeq != 2 {
		c.state = StateScanning
		c.scheduleScan(c.cfg.RescanAfterDeauth)
		return
	}
	c.hsStep = 2
	c.medium.Transmit(c.frame(ieee80211.Frame{
		Subtype:    ieee80211.SubtypeAssocRequest,
		DA:         c.peer,
		BSSID:      c.peer,
		SSID:       c.joinSSID,
		Capability: ieee80211.CapESS,
	}))
	c.armHandshakeTimeout()
}

func (c *Client) onAssocResponse(f *ieee80211.Frame) {
	if c.state != StateAssociating || f.SA != c.peer || c.hsStep != 2 {
		return
	}
	if f.Status != ieee80211.StatusSuccess {
		c.state = StateScanning
		c.scheduleScan(c.cfg.RescanAfterDeauth)
		return
	}
	c.hsStep = 3
	c.state = StateConnected
	c.Stats.Connected = true
	c.Stats.ConnectedTo = c.peer
	c.Stats.ConnectedVia = c.joinSSID
	c.Stats.ConnectedAt = c.engine.Now()
	if c.trace != nil {
		c.trace.Instant("client", "associated", c.tid, c.engine.Now(),
			map[string]any{"peer": c.peer.String(), "ssid": c.joinSSID})
	}
}

func (c *Client) onDeauth(f *ieee80211.Frame) {
	if c.state != StateConnected {
		return
	}
	if f.SA != c.peer && f.BSSID != c.peer {
		return
	}
	if f.DA != c.mac && !f.DA.IsBroadcast() {
		return
	}
	c.Stats.Deauths++
	c.state = StateScanning
	c.peer = ieee80211.MAC{}
	c.hsEpoch++
	c.scheduleScan(c.cfg.RescanAfterDeauth)
}
