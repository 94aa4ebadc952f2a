package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; methods on a nil *Counter are no-ops. Counters are safe for
// concurrent use: campaign workers and the monitor's scrape path may touch
// the same handle.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value stored as atomic float bits, so it too can
// be read mid-run by a scraper. Methods on a nil *Gauge are no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax stores v only if it exceeds the current value — a high-water mark.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value; larger values land in the
// implicit +Inf overflow bucket. Observations take a per-histogram mutex
// (sum and bucket must move together); methods on a nil *Histogram are
// no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// snapshot copies the distribution under one lock so sum, count and bucket
// counts are mutually consistent.
func (h *Histogram) snapshot() (sum float64, n int64, buckets []BucketCount) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets = make([]BucketCount, len(h.counts))
	for i, c := range h.counts {
		ub := inf
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		buckets[i] = BucketCount{UpperBound: ub, Count: c}
	}
	return h.sum, h.n, buckets
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metricEntry is one registered metric.
type metricEntry struct {
	name   string
	labels string // canonical "k=v,k=v" form, keys sorted
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry hands out metrics keyed by name plus label pairs and snapshots
// them in deterministic order. Lookups take a lock (they happen at
// instrumentation time); the returned Counter/Gauge/Histogram handles are
// themselves safe for concurrent use, so a live monitor can snapshot the
// registry while the run — or many campaign workers — keep writing.
// Methods on a nil *Registry return nil handles, whose methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*metricEntry)}
}

// canonLabels renders k,v pairs in canonical sorted form. Odd trailing
// labels are dropped.
func canonLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	return b.String()
}

// lookup finds or creates an entry, enforcing kind consistency. A new
// entry gets its metric (a histogram with the given bounds) under the
// registry lock, so a concurrent Snapshot never sees it without one and two
// first uses of one series share a single metric.
func (r *Registry) lookup(name string, kind metricKind, labels []string, bounds []float64) *metricEntry {
	ls := canonLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", key, e.kind, kind))
		}
		return e
	}
	e := &metricEntry{name: name, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		e.hist = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
	}
	r.entries[key] = e
	return e
}

// Counter returns the counter for name and label pairs, creating it on
// first use. labels are alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, labels, nil).counter
}

// Gauge returns the gauge for name and label pairs, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, labels, nil).gauge
}

// Histogram returns the fixed-bucket histogram for name and label pairs,
// creating it with the given upper bounds on first use (bounds must be
// sorted ascending; later calls may pass nil bounds to reuse the existing
// histogram).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, labels, bounds).hist
}

// BucketCount is one histogram bucket in a snapshot. UpperBound is +Inf for
// the overflow bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MetricPoint is one metric in a snapshot.
type MetricPoint struct {
	// Name and Labels identify the metric; Labels is the canonical
	// "k=v,k=v" form.
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value is the counter or gauge value; for histograms it is the sum of
	// observations.
	Value float64 `json:"value"`
	// Count is the number of observations (histograms only).
	Count int64 `json:"count,omitempty"`
	// Buckets holds the cumulative-free per-bucket counts (histograms
	// only).
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// MergeLabels merges extra alternating key, value pairs into a canonical
// label string, re-canonicalising the result. Later values win on duplicate
// keys, so a publisher can stamp run/site identity over whatever the run
// recorded. An empty result stays "".
func MergeLabels(canon string, extra ...string) string {
	if len(extra) == 0 {
		return canon
	}
	merged := make(map[string]string)
	order := make([]string, 0, 4)
	add := func(k, v string) {
		if _, ok := merged[k]; !ok {
			order = append(order, k)
		}
		merged[k] = v
	}
	if canon != "" {
		for _, pair := range strings.Split(canon, ",") {
			if i := strings.IndexByte(pair, '='); i >= 0 {
				add(pair[:i], pair[i+1:])
			}
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		add(extra[i], extra[i+1])
	}
	flat := make([]string, 0, 2*len(order))
	for _, k := range order {
		flat = append(flat, k, merged[k])
	}
	return canonLabels(flat)
}

// Snapshot is an ordered dump of a registry. Equal registries produce
// byte-identical WriteText output.
type Snapshot []MetricPoint

// Snapshot returns every registered metric sorted by (name, labels).
// A nil registry yields a nil snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	out := make(Snapshot, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			p.Value = float64(e.counter.Value())
		case kindGauge:
			p.Value = e.gauge.Value()
		case kindHistogram:
			p.Value, p.Count, p.Buckets = e.hist.snapshot()
		}
		out = append(out, p)
	}
	return out
}

// inf is the +Inf overflow bound.
var inf = math.Inf(1)

// Get returns the point for name and label pairs, if present.
func (s Snapshot) Get(name string, labels ...string) (MetricPoint, bool) {
	ls := canonLabels(labels)
	for _, p := range s {
		if p.Name == name && p.Labels == ls {
			return p, true
		}
	}
	return MetricPoint{}, false
}

// Value returns the value for name and label pairs, or 0 when absent.
func (s Snapshot) Value(name string, labels ...string) float64 {
	p, _ := s.Get(name, labels...)
	return p.Value
}

// WriteText writes the snapshot as an expvar-style text dump, one metric
// per line, in deterministic order:
//
//	medium_frames_sent{subtype=beacon} 42
//	core_batch_size histogram count=12 sum=480 le20=3 le40=9 leInf=0
func (s Snapshot) WriteText(w io.Writer) error {
	for _, p := range s {
		name := p.Name
		if p.Labels != "" {
			name += "{" + p.Labels + "}"
		}
		var err error
		if p.Kind == "histogram" {
			_, err = fmt.Fprintf(w, "%s histogram count=%d sum=%g", name, p.Count, p.Value)
			if err == nil {
				for _, b := range p.Buckets {
					if b.UpperBound == inf {
						_, err = fmt.Fprintf(w, " leInf=%d", b.Count)
					} else {
						_, err = fmt.Fprintf(w, " le%g=%d", b.UpperBound, b.Count)
					}
					if err != nil {
						break
					}
				}
				if err == nil {
					_, err = fmt.Fprintln(w)
				}
			}
		} else {
			_, err = fmt.Fprintf(w, "%s %g\n", name, p.Value)
		}
		if err != nil {
			return fmt.Errorf("obs: write snapshot: %w", err)
		}
	}
	return nil
}

// String returns the WriteText dump.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}
