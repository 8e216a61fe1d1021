package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair qualifying a metric series.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative semantics; negative deltas are the
// caller's bug and are ignored).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one registered metric time series.
type series struct {
	name   string
	labels []Label
	kind   string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds a process's (or one experiment run's) metric series.
// All methods are safe for concurrent use. Series are created lazily on
// first access and identified by name plus the full label set.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	order  []string // registration order, for stable human-friendly dumps
	help   map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// SetHelp attaches a help string to a metric family, emitted as the
// # HELP line of the Prometheus encoding.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// labelSet normalises k/v varargs into a sorted label slice. Labels
// arrive as alternating name, value strings; an odd count is a
// programmer error and panics (like fmt verbs, it cannot be handled
// meaningfully at runtime).
func labelSet(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Name: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	return labels
}

// seriesKey is the canonical map key of a series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the series for (name, labels), creating it with mk on
// first use. It guards against a name being reused with a different
// metric kind.
func (r *Registry) lookup(name, kind string, labels []Label, mk func(*series)) *series {
	key := seriesKey(name, labels)
	r.mu.RLock()
	s, ok := r.series[key]
	r.mu.RUnlock()
	if ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, s.kind, kind))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, s.kind, kind))
		}
		return s
	}
	s = &series{name: name, labels: labels, kind: kind}
	mk(s)
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns (creating if needed) the counter for name and the
// given label name/value pairs.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	s := r.lookup(name, "counter", labelSet(labelPairs), func(s *series) {
		s.counter = &Counter{}
	})
	return s.counter
}

// LazyCounter is a counter handle for hot paths whose series may never
// count: the name and labels are normalised once, when the handle is
// made, and the series is created on the first Inc or Add — so the
// registry's contents stay what by-name lookups at the same sites would
// leave, while every later increment is one atomic load and add. Like
// any resolved handle it keeps counting into its series after the
// registry is Reset.
type LazyCounter struct {
	reg    *Registry
	name   string
	labels []Label
	c      atomic.Pointer[Counter]
}

// LazyCounter returns a handle on the counter for name and labels,
// without creating the series yet.
func (r *Registry) LazyCounter(name string, labelPairs ...string) *LazyCounter {
	return &LazyCounter{reg: r, name: name, labels: labelSet(labelPairs)}
}

// Inc adds one, creating the series on first use.
func (l *LazyCounter) Inc() {
	c := l.c.Load()
	if c == nil {
		c = l.reg.lookup(l.name, "counter", l.labels, func(s *series) {
			s.counter = &Counter{}
		}).counter
		l.c.Store(c)
	}
	c.Inc()
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	s := r.lookup(name, "gauge", labelSet(labelPairs), func(s *series) {
		s.gauge = &Gauge{}
	})
	return s.gauge
}

// Histogram returns (creating if needed) the histogram for name and
// labels. The bucket bounds apply only on creation; later calls reuse
// the existing series regardless of the bounds argument, so one metric
// family keeps one bucket layout.
func (r *Registry) Histogram(name string, buckets []float64, labelPairs ...string) *Histogram {
	s := r.lookup(name, "histogram", labelSet(labelPairs), func(s *series) {
		s.hist = newHistogram(buckets)
	})
	return s.hist
}

// Reset removes every series (help strings survive). Tests and
// benchmark loops use it to start from a clean slate.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.series = make(map[string]*series)
	r.order = nil
	r.mu.Unlock()
}

// Merge folds other's series into r: counters add, gauges take other's
// value, histograms add bucket-wise (bucket layouts must match; a
// mismatched layout is reported as an error and that series skipped).
// Experiment runs accumulate into a private registry and merge it into
// the process default when done, so partially-failed runs never leave
// half-counted series behind.
func (r *Registry) Merge(other *Registry) error {
	if other == nil || other == r {
		return nil
	}
	other.mu.RLock()
	keys := append([]string(nil), other.order...)
	src := make([]*series, 0, len(keys))
	for _, k := range keys {
		src = append(src, other.series[k])
	}
	other.mu.RUnlock()

	var firstErr error
	for _, s := range src {
		pairs := make([]string, 0, 2*len(s.labels))
		for _, l := range s.labels {
			pairs = append(pairs, l.Name, l.Value)
		}
		switch s.kind {
		case "counter":
			r.Counter(s.name, pairs...).Add(s.counter.Value())
		case "gauge":
			r.Gauge(s.name, pairs...).Set(s.gauge.Value())
		case "histogram":
			dst := r.Histogram(s.name, s.hist.bounds, pairs...)
			if err := dst.merge(s.hist); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: merge %s: %w", s.name, err)
			}
		}
	}
	return firstErr
}

// sortedSeries returns all series ordered by name then label set — the
// deterministic order of both encodings.
func (r *Registry) sortedSeries() []*series {
	r.mu.RLock()
	out := make([]*series, 0, len(r.series))
	for _, key := range r.order {
		out = append(out, r.series[key])
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return seriesKey("", out[i].labels) < seriesKey("", out[j].labels)
	})
	return out
}
