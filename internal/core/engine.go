package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/obs"
)

// BufferKind labels which selection bucket an SSID was served from; the
// Figure 6 breakdown and the buffer adaptation both consume it.
type BufferKind int

// Buffer kinds.
const (
	// KindPopularity marks regular Popularity Buffer picks.
	KindPopularity BufferKind = iota + 1
	// KindPopularityGhost marks random picks from PB's ghost list.
	KindPopularityGhost
	// KindFreshness marks regular Freshness Buffer picks.
	KindFreshness
	// KindFreshnessGhost marks random picks from FB's ghost list.
	KindFreshnessGhost
	// KindMirror marks KARMA-style responses to directed probes.
	KindMirror
)

// String implements fmt.Stringer.
func (k BufferKind) String() string {
	switch k {
	case KindPopularity:
		return "popularity"
	case KindPopularityGhost:
		return "popularity-ghost"
	case KindFreshness:
		return "freshness"
	case KindFreshnessGhost:
		return "freshness-ghost"
	case KindMirror:
		return "mirror"
	default:
		return "unknown"
	}
}

// FromPopularity reports whether the kind belongs to the popularity side
// (buffer or ghost) in the paper's Figure 6 grouping.
func (k BufferKind) FromPopularity() bool {
	return k == KindPopularity || k == KindPopularityGhost
}

// FromFreshness reports whether the kind belongs to the freshness side.
func (k BufferKind) FromFreshness() bool {
	return k == KindFreshness || k == KindFreshnessGhost
}

// HitRecord is one successful capture with full attribution.
type HitRecord struct {
	// MAC is the victim's over-the-air MAC at capture time (under MAC
	// randomization, one of possibly many the device used).
	MAC ieee80211.MAC
	// Track is the attacker-assigned device track the victim was linked
	// to; the identity linker gives every distinct MAC its own track.
	Track linker.TrackID
	// SSID lured it.
	SSID string
	// At is the capture time.
	At time.Duration
	// Source says where the SSID was learnt (WiGLE/nearby/direct/carrier).
	Source Source
	// Kind says which buffer served it (mirror for directed-probe hits).
	Kind BufferKind
}

// StateSample is a point-in-time engine snapshot for time-series plots.
type StateSample struct {
	At     time.Duration
	DBSize int
	PB     int
	FB     int
}

// clientTrack is the per-device untried bookkeeping (§III-A): every SSID
// ever sent to the tracked device, with the bucket it came from. sent is
// indexed by entry id (the entry's insertOrder) and holds the BufferKind,
// 0 meaning never sent — BufferKind starts at 1. Tracks are keyed by the
// linker-assigned TrackID, not by raw MAC, so a linker that re-identifies
// a rotated MAC resumes the device's rotation mid-list instead of
// restarting from the head.
type clientTrack struct {
	sent      []uint8
	sentCount int
}

// kind returns the bucket en was first sent from, or 0 if it never was.
func (t *clientTrack) kind(en *entry) BufferKind {
	if en.insertOrder < len(t.sent) {
		return BufferKind(t.sent[en.insertOrder])
	}
	return 0
}

// mark records en as sent from kind unless it was sent before. The record
// grows to the whole database (dbLen entries) at once, so a track
// reallocates only after the database itself has grown.
func (t *clientTrack) mark(en *entry, kind BufferKind, dbLen int) {
	if en.insertOrder >= len(t.sent) {
		t.sent = append(t.sent, make([]uint8, dbLen-len(t.sent))...)
	}
	if t.sent[en.insertOrder] == 0 {
		t.sent[en.insertOrder] = uint8(kind)
		t.sentCount++
	}
}

// Engine is the City-Hunter strategy. It is not safe for concurrent use;
// the discrete-event engine is single-threaded by design.
type Engine struct {
	cfg Config
	rng *rand.Rand
	db  *database

	// linker maps observed MACs to device tracks; the identity MACLinker
	// (the default) reproduces the historical MAC-keyed behaviour exactly.
	linker  linker.Linker
	clients map[linker.TrackID]*clientTrack
	// fbSize is the adaptive Freshness Buffer size; the Popularity
	// Buffer gets the rest of the regular budget.
	fbSize int

	hits       []HitRecord
	seededSize int
	samples    []StateSample

	// Ghost-hit counters drive the optional proportional adaptation.
	pbGhostHits int
	fbGhostHits int

	// scratchBatch and ghosts (both ghost lists, GhostSize each) are
	// reused across selections to avoid allocation.
	scratchBatch []*entry
	ghosts       []*entry

	// om holds the observability handles; nil when uninstrumented, which
	// keeps the BroadcastReply hot path at a single branch.
	om *engineObs
}

// engineObs bundles the engine's metric handles and journal.
type engineObs struct {
	replies     *obs.Counter
	batch       *obs.Histogram
	hits        [6]*obs.Counter // indexed by BufferKind
	harvests    *obs.Counter
	adaptations *obs.Counter
	pbSize      *obs.Gauge
	fbSize      *obs.Gauge
	dbSize      *obs.Gauge
	tracks      *obs.Gauge
	relinks     *obs.Gauge
	journal     *obs.Journal
}

// Instrument attaches the engine to an observability runtime: reply batch
// counters and size histogram (core_broadcast_replies, core_batch_size),
// per-buffer hit attribution (core_hits{kind=...}), harvest and adaptation
// counters, and PB/FB/database size gauges. With a journal present it also
// records ghost-hit and buffer-adaptation events. A nil runtime is a no-op.
//
// The optional labels (key/value pairs) stamp every series the engine
// registers. Partitioned deployments use them to give each site's engine
// its own gauge series — N engines setting one shared unlabeled gauge from
// N goroutines would race — while classic callers pass none and keep their
// historical series names byte for byte.
func (e *Engine) Instrument(rt *obs.Runtime, labels ...string) {
	if rt == nil || (rt.Metrics == nil && rt.Journal == nil) {
		return
	}
	o := &engineObs{journal: rt.Journal}
	if rt.Metrics != nil {
		withKind := func(k BufferKind) []string {
			return append([]string{"kind", k.String()}, labels...)
		}
		o.replies = rt.Metrics.Counter("core_broadcast_replies", labels...)
		o.batch = rt.Metrics.Histogram("core_batch_size", []float64{0, 10, 20, 30, 40}, labels...)
		for _, k := range []BufferKind{KindPopularity, KindPopularityGhost, KindFreshness, KindFreshnessGhost, KindMirror} {
			o.hits[k] = rt.Metrics.Counter("core_hits", withKind(k)...)
		}
		o.harvests = rt.Metrics.Counter("core_harvested_ssids", labels...)
		o.adaptations = rt.Metrics.Counter("core_adaptations", labels...)
		o.pbSize = rt.Metrics.Gauge("core_pb_size", labels...)
		o.fbSize = rt.Metrics.Gauge("core_fb_size", labels...)
		o.dbSize = rt.Metrics.Gauge("core_db_size", labels...)
		o.tracks = rt.Metrics.Gauge("core_tracks", labels...)
		o.relinks = rt.Metrics.Gauge("core_relinks", labels...)
	}
	e.om = o
	e.omSyncGauges()
}

// omSyncGauges refreshes the size gauges after a state change.
func (e *Engine) omSyncGauges() {
	if e.om == nil {
		return
	}
	pb, fb := e.BufferSizes()
	e.om.pbSize.Set(float64(pb))
	e.om.fbSize.Set(float64(fb))
	e.om.dbSize.Set(float64(e.db.len()))
	e.om.tracks.Set(float64(e.linker.Tracks()))
	e.om.relinks.Set(float64(e.linker.Links()))
}

// Name implements attack.Strategy.
func (e *Engine) Name() string {
	if e.cfg.Mode == ModePreliminary {
		return "City-Hunter (preliminary)"
	}
	return "City-Hunter"
}

// DBSize returns the current SSID database size.
func (e *Engine) DBSize() int { return e.db.len() }

// BufferSizes returns the current regular Popularity and Freshness buffer
// sizes. In preliminary mode the whole budget is popularity.
func (e *Engine) BufferSizes() (pb, fb int) {
	if e.cfg.Mode == ModePreliminary {
		return e.cfg.ReplyBudget, 0
	}
	regular := e.cfg.ReplyBudget - 2*e.cfg.GhostPicks
	return regular - e.fbSize, e.fbSize
}

// Hits returns all capture records in order.
func (e *Engine) Hits() []HitRecord {
	out := make([]HitRecord, len(e.hits))
	copy(out, e.hits)
	return out
}

// SentCount returns how many distinct SSIDs have been sent to the device
// the linker associates with mac.
func (e *Engine) SentCount(mac ieee80211.MAC) int {
	id, ok := e.linker.Lookup(mac)
	if !ok {
		return 0
	}
	if t, ok := e.clients[id]; ok {
		return t.sentCount
	}
	return 0
}

// SentCountAcross sums the sent counts over every distinct track the
// linker resolved the given MACs to, counting each track once. It is the
// per-device form of SentCount for phones that rotated through several
// MACs: an un-linked rotation splits the device across tracks whose
// counts add up, while a successful re-link collapses them to one track
// counted once. For a single stable MAC it equals SentCount.
func (e *Engine) SentCountAcross(macs []ieee80211.MAC) int {
	total := 0
	var seen []linker.TrackID
	for _, mac := range macs {
		id, ok := e.linker.Lookup(mac)
		if !ok {
			continue
		}
		dup := false
		for _, s := range seen {
			if s == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, id)
		if t, ok := e.clients[id]; ok {
			total += t.sentCount
		}
	}
	return total
}

// Linker returns the engine's MAC-to-track linker.
func (e *Engine) Linker() linker.Linker { return e.linker }

// SampleState records a snapshot at the given time for time-series output.
func (e *Engine) SampleState(now time.Duration) {
	pb, fb := e.BufferSizes()
	e.samples = append(e.samples, StateSample{At: now, DBSize: e.db.len(), PB: pb, FB: fb})
}

// EntryInfo is an exported view of one database entry.
type EntryInfo struct {
	SSID   string
	Source Source
	Weight float64
	Hits   int
}

// TopEntries returns the n highest-weight entries.
func (e *Engine) TopEntries(n int) []EntryInfo {
	rank := e.db.popularityRank()
	if n > len(rank) {
		n = len(rank)
	}
	out := make([]EntryInfo, n)
	for i := 0; i < n; i++ {
		en := rank[i]
		out[i] = EntryInfo{SSID: en.ssid, Source: en.source, Weight: en.weight, Hits: en.hits}
	}
	return out
}

// summaryTop is how many highest-weight entries a Summary keeps.
const summaryTop = 10

// Summary is what a finished run leaves of an engine: plain values, so a
// kept result does not pin the seeded database.
type Summary struct {
	// SeededSize is the database size right after offline initialisation;
	// DBSize is its final size.
	SeededSize, DBSize int
	// Hits are the capture records in order.
	Hits []HitRecord
	// Samples are the SampleState snapshots in order.
	Samples []StateSample
	// Top are the highest-weight entries at the end of the run.
	Top []EntryInfo
}

// Summary captures the engine's end-of-run state. Call it once the run is
// over: the hit and sample slices are shared, not copied.
func (e *Engine) Summary() *Summary {
	return &Summary{
		SeededSize: e.seededSize,
		DBSize:     e.db.len(),
		Hits:       e.hits,
		Samples:    e.samples,
		Top:        e.TopEntries(summaryTop),
	}
}

// trackOf resolves an observation to its device track via the linker,
// creating the per-track bookkeeping on first sight.
func (e *Engine) trackOf(o linker.Observation) (linker.TrackID, *clientTrack) {
	id := e.linker.Observe(o)
	t, ok := e.clients[id]
	if !ok {
		t = &clientTrack{}
		e.clients[id] = t
	}
	return id, t
}

// Knows implements attack.Knower: whether ssid is already in the database.
func (e *Engine) Knows(ssid string) bool {
	_, ok := e.db.get(ssid)
	return ok
}

// HarvestDirect implements attack.Strategy: online database updating from
// directed probes (step 2 of Fig. 3). New SSIDs enter with HarvestWeight;
// re-sightings bump the weight. The probed SSID is also marked as tried for
// the prober — the base station mirrors it, so a batch slot would be
// wasted on it.
func (e *Engine) HarvestDirect(_ time.Duration, o linker.Observation, ssid string) {
	if ssid == "" {
		return
	}
	en, created := e.db.add(ssid, SourceDirectProbe, e.cfg.HarvestWeight)
	if !created {
		e.db.bump(en, e.cfg.SightingWeightDelta)
	} else if e.om != nil {
		e.om.harvests.Inc()
		e.om.dbSize.Set(float64(e.db.len()))
	}
	// A harvest is by definition a directed probe; normalise the
	// observation so linkers see the disclosed SSID even when a caller
	// hands in a bare MAC.
	o.Directed, o.SSID = true, ssid
	_, t := e.trackOf(o)
	t.mark(en, KindMirror, e.db.len())
}

// BroadcastReply implements attack.Strategy: SSID selection (step 3 of
// Fig. 3). In full mode the batch is drawn from the Popularity Buffer, the
// Freshness Buffer and GhostPicks random entries from each ghost list,
// under the per-client untried rotation; any shortfall is backfilled with
// further popularity-ranked entries.
func (e *Engine) BroadcastReply(_ time.Duration, o linker.Observation, limit int) []string {
	budget := e.cfg.ReplyBudget
	if limit < budget {
		budget = limit
	}
	if budget <= 0 {
		return nil
	}
	_, t := e.trackOf(o)

	// An entry is eligible unless it is already in this batch or, under
	// the untried rotation, was sent to the track before. take marks each
	// pick sent at once, so under rotation the sent record covers the
	// batch too; without rotation (an ablation) the batch is short enough
	// to scan.
	batch := e.scratchBatch[:0]
	eligible := func(en *entry) bool {
		if e.cfg.RotateUntried {
			return t.kind(en) == 0
		}
		return !slices.Contains(batch, en)
	}
	take := func(en *entry, kind BufferKind) bool {
		if !eligible(en) {
			return false
		}
		t.mark(en, kind, e.db.len())
		batch = append(batch, en)
		return len(batch) >= budget
	}

	if e.cfg.Mode == ModeFull {
		e.selectFull(budget, eligible, take)
	}
	// Preliminary mode — and full-mode backfill when the freshness side
	// could not fill its share. The §III design has no weights yet, so
	// it walks the database in storage order; the full design backfills
	// down the popularity ranking.
	if len(batch) < budget {
		backfill := e.db.popularityRank()
		if e.cfg.Mode == ModePreliminary {
			backfill = e.db.unorderedRank()
		}
		for _, en := range backfill {
			if take(en, KindPopularity) {
				break
			}
		}
	}

	e.scratchBatch = batch
	if e.om != nil {
		e.om.replies.Inc()
		e.om.batch.Observe(float64(len(batch)))
		e.om.tracks.Set(float64(e.linker.Tracks()))
		e.om.relinks.Set(float64(e.linker.Links()))
	}
	out := make([]string, len(batch))
	for i, en := range batch {
		out[i] = en.ssid
	}
	return out
}

// selectFull fills the batch from PB, FB and both ghost lists. Both the
// regular buffers and the ghost candidates honour the per-client untried
// rotation: a client never wastes a slot on an SSID it already received.
func (e *Engine) selectFull(budget int, eligible func(*entry) bool, take func(*entry, BufferKind) bool) {
	regular := budget - 2*e.cfg.GhostPicks
	if regular < 0 {
		regular = 0
	}
	fb := e.fbSize
	if fb > regular {
		fb = regular
	}
	pb := regular - fb
	g := e.cfg.GhostSize

	// Popularity Buffer: the pb highest-weight eligible entries; the next
	// GhostSize eligible entries form its ghost list.
	ghostPop := e.ghosts[:0:g]
	taken := 0
	for _, en := range e.db.popularityRank() {
		if !eligible(en) {
			continue
		}
		if taken < pb {
			if take(en, KindPopularity) {
				return
			}
			taken++
			continue
		}
		if len(ghostPop) < e.cfg.GhostSize {
			ghostPop = append(ghostPop, en)
			continue
		}
		break
	}

	// Freshness Buffer: the fb most recently hit eligible entries; the
	// following GhostSize form its ghost list.
	ghostFresh := e.ghosts[g : g : 2*g]
	taken = 0
	for _, en := range e.db.freshnessRank() {
		if !eligible(en) {
			continue
		}
		if taken < fb {
			if take(en, KindFreshness) {
				return
			}
			taken++
			continue
		}
		if len(ghostFresh) < e.cfg.GhostSize {
			ghostFresh = append(ghostFresh, en)
			continue
		}
		break
	}

	// Random ghost picks from each list.
	e.pickGhosts(ghostPop, KindPopularityGhost, take)
	e.pickGhosts(ghostFresh, KindFreshnessGhost, take)
}

// adaptDelta returns the buffer-boundary step for a ghost hit: 1 under the
// paper's rule, or ARC's max(1, opposite/own) under proportional mode.
func (e *Engine) adaptDelta(opposite, own int) int {
	if !e.cfg.ProportionalAdaptation || own <= 0 || opposite <= own {
		return 1
	}
	return opposite / own
}

// pickGhosts takes up to GhostPicks random entries from candidates.
func (e *Engine) pickGhosts(candidates []*entry, kind BufferKind, take func(*entry, BufferKind) bool) {
	picks := e.cfg.GhostPicks
	if picks > len(candidates) {
		picks = len(candidates)
	}
	// Partial Fisher-Yates over the candidate list.
	for i := 0; i < picks; i++ {
		j := i + e.rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		if take(candidates[i], kind) {
			return
		}
	}
}

// AbsorbHit merges a capture learnt at ANOTHER deployment site into this
// engine — the periodic-sync knowledge plane. The SSID enters the database
// if it is new (a site can relay SSIDs it harvested over the air) and gets
// the same weight and freshness treatment a local hit would, so a network
// that captured a phone at the canteen rises into this site's Popularity
// and Freshness buffers. Unlike RecordHit it does NOT append to the local
// hit log, touch per-client tracking, or adapt the buffer boundary: the hit
// happened elsewhere, so local attribution and ghost accounting must not
// claim it.
func (e *Engine) AbsorbHit(now time.Duration, ssid string) {
	if ssid == "" {
		return
	}
	en, created := e.db.add(ssid, SourceDirectProbe, e.cfg.HarvestWeight)
	if created && e.om != nil {
		e.om.dbSize.Set(float64(e.db.len()))
	}
	e.db.recordHit(en, now, e.cfg.HitWeightDelta)
}

// RecordHit implements attack.Strategy: weight and freshness updates plus
// buffer-size adaptation (step 2/3 of Fig. 3). A hit served from PB's ghost
// list means the Popularity Buffer was too small, so it grows at FB's
// expense, and vice versa — the ARC-inspired balancing of §IV-C.
func (e *Engine) RecordHit(now time.Duration, victim linker.Observation, ssid string) {
	en, known := e.db.get(ssid)
	if known {
		e.db.recordHit(en, now, e.cfg.HitWeightDelta)
	}

	// Resolve the victim to its device track. An associating victim has
	// almost always probed first, so Lookup hits; the Observe fallback
	// covers synthetic callers that record hits cold.
	id, linked := e.linker.Lookup(victim.MAC)
	if !linked {
		id = e.linker.Observe(victim)
	}
	kind, source := KindMirror, SourceDirectProbe
	if known {
		source = en.source
		if t, ok := e.clients[id]; ok {
			if k := t.kind(en); k != 0 {
				kind = k
			}
		}
	}
	e.hits = append(e.hits, HitRecord{MAC: victim.MAC, Track: id, SSID: ssid, At: now, Source: source, Kind: kind})

	if e.om != nil {
		e.om.hits[kind].Inc()
		if e.om.journal != nil && (kind == KindPopularityGhost || kind == KindFreshnessGhost) {
			e.om.journal.Record(now, obs.EventGhostHit, victim.MAC.String(),
				fmt.Sprintf("%s served %q", kind, ssid))
		}
	}

	if e.cfg.Mode != ModeFull || e.cfg.DisableAdaptation {
		return
	}
	regular := e.cfg.ReplyBudget - 2*e.cfg.GhostPicks
	adapted := 0
	switch kind {
	case KindPopularityGhost:
		// The Popularity Buffer proved too small: grow it at the
		// Freshness Buffer's expense — by one (the paper's rule) or by
		// the ARC-style proportional step.
		e.pbGhostHits++
		delta := e.adaptDelta(e.fbGhostHits, e.pbGhostHits)
		if e.fbSize-delta < e.cfg.MinBuffer {
			delta = e.fbSize - e.cfg.MinBuffer
		}
		e.fbSize -= delta
		adapted = -delta
	case KindFreshnessGhost:
		// And vice versa.
		e.fbGhostHits++
		delta := e.adaptDelta(e.pbGhostHits, e.fbGhostHits)
		if e.fbSize+delta > regular-e.cfg.MinBuffer {
			delta = regular - e.cfg.MinBuffer - e.fbSize
		}
		e.fbSize += delta
		adapted = delta
	}
	if e.om != nil && adapted != 0 {
		e.om.adaptations.Inc()
		e.omSyncGauges()
		if e.om.journal != nil {
			pb, fb := e.BufferSizes()
			e.om.journal.Record(now, obs.EventAdaptation, victim.MAC.String(),
				fmt.Sprintf("%s hit moved boundary by %+d: pb=%d fb=%d", kind, adapted, pb, fb))
		}
	}
}
