package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentHammering drives counters, gauges and histograms from
// many goroutines at once; with -race this doubles as the data-race
// check the package's concurrency contract promises.
func TestConcurrentHammering(t *testing.T) {
	reg := NewRegistry()
	const (
		workers = 16
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total")
			labelled := reg.Counter("hammer_labelled_total", "worker", []string{"even", "odd"}[w%2])
			g := reg.Gauge("hammer_gauge")
			h := reg.Histogram("hammer_hist", LinearBuckets(0, 1, 10))
			for i := 0; i < perG; i++ {
				c.Inc()
				labelled.Add(2)
				g.Set(float64(i))
				g.Add(1)
				h.Observe(float64(i % 10))
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("hammer_total").Value(); got != workers*perG {
		t.Errorf("counter = %d, want %d", got, workers*perG)
	}
	even := reg.Counter("hammer_labelled_total", "worker", "even").Value()
	odd := reg.Counter("hammer_labelled_total", "worker", "odd").Value()
	if even+odd != 2*workers*perG {
		t.Errorf("labelled counters sum = %d, want %d", even+odd, 2*workers*perG)
	}
	if got := reg.Histogram("hammer_hist", nil).Count(); got != workers*perG {
		t.Errorf("histogram count = %d, want %d", got, workers*perG)
	}
	// Encoding while another goroutine writes must be race-free too.
	var wg2 sync.WaitGroup
	wg2.Add(2)
	go func() {
		defer wg2.Done()
		for i := 0; i < 100; i++ {
			reg.Counter("hammer_total").Inc()
			reg.Histogram("hammer_hist", nil).Observe(3)
		}
	}()
	go func() {
		defer wg2.Done()
		for i := 0; i < 20; i++ {
			_ = reg.PrometheusText()
			_ = reg.Snapshot()
		}
	}()
	wg2.Wait()
}

// TestQuantileAgainstSortedReference checks the interpolated quantile
// estimate against the exact quantile of the same sample, requiring
// agreement within one bucket width.
func TestQuantileAgainstSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	const n = 5000
	bucketWidth := 0.5
	h := newHistogram(LinearBuckets(0, bucketWidth, 41)) // covers [0,20]

	samples := make([]float64, n)
	for i := range samples {
		v := rnd.NormFloat64()*3 + 10 // mostly inside [0,20]
		if v < 0 {
			v = 0
		}
		if v > 20 {
			v = 20
		}
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)

	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		want := samples[idx]
		if math.Abs(got-want) > bucketWidth {
			t.Errorf("Quantile(%g) = %g, exact %g (tolerance %g)", q, got, want, bucketWidth)
		}
	}

	if got := h.Quantile(0.5); got < h.Quantile(0.1) || got > h.Quantile(0.9) {
		t.Errorf("quantiles not monotone: p10=%g p50=%g p90=%g",
			h.Quantile(0.1), got, h.Quantile(0.9))
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Error("out-of-range quantile should be NaN")
	}
	if !math.IsNaN(newHistogram(nil).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

// TestQuantileClamps checks the estimate never leaves the observed
// range, including in the +Inf overflow bucket.
func TestQuantileClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(100) // +Inf bucket
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want observed max 100", got)
	}
	if got := h.Quantile(0); got < 0.5 {
		t.Errorf("Quantile(0) = %g, below observed min 0.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram(LinearBuckets(0, 1, 5))
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 6 || h.Mean() != 2 {
		t.Errorf("count/sum/mean = %d/%g/%g, want 3/6/2", h.Count(), h.Sum(), h.Mean())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("frames_total", "side", "rx").Add(3)
	b.Counter("frames_total", "side", "rx").Add(4)
	b.Counter("frames_total", "side", "tx").Add(1)
	b.Gauge("snr_db").Set(12)
	a.Histogram("dist", LinearBuckets(0, 1, 4)).Observe(1)
	b.Histogram("dist", LinearBuckets(0, 1, 4)).Observe(2)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Counter("frames_total", "side", "rx").Value(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("frames_total", "side", "tx").Value(); got != 1 {
		t.Errorf("new-series counter = %d, want 1", got)
	}
	if got := a.Gauge("snr_db").Value(); got != 12 {
		t.Errorf("merged gauge = %g, want 12", got)
	}
	if got := a.Histogram("dist", nil).Count(); got != 2 {
		t.Errorf("merged histogram count = %d, want 2", got)
	}

	// Mismatched bucket layouts are reported, not silently mangled.
	c := NewRegistry()
	c.Histogram("dist", LinearBuckets(0, 2, 2)).Observe(1)
	if err := a.Merge(c); err == nil {
		t.Error("expected bucket-layout mismatch error")
	}
	// Self- and nil-merges are no-ops.
	if err := a.Merge(a); err != nil {
		t.Errorf("self merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind collision")
		}
	}()
	reg.Gauge("x_total")
}

// TestLazyCounter checks a lazy handle leaves no series behind until it
// counts, then counts into the same series a by-name lookup returns,
// from concurrent first uses, without allocating once resolved.
func TestLazyCounter(t *testing.T) {
	reg := NewRegistry()
	l := reg.LazyCounter("lazy_total", "path", "b", "kind", "a")
	if n := len(reg.Snapshot()); n != 0 {
		t.Fatalf("unused handle left %d series", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("lazy_total", "kind", "a", "path", "b").Value(); got != 400 {
		t.Errorf("by-name value = %d, want 400", got)
	}
	if n := len(reg.Snapshot()); n != 1 {
		t.Errorf("snapshot has %d series, want 1", n)
	}
	if allocs := testing.AllocsPerRun(100, l.Inc); allocs != 0 {
		t.Errorf("resolved Inc allocates %.1f times", allocs)
	}
}

func TestReset(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Inc()
	reg.Reset()
	if got := reg.Counter("a_total").Value(); got != 0 {
		t.Errorf("counter after reset = %d, want 0", got)
	}
	if len(reg.Snapshot()) != 1 {
		t.Errorf("snapshot after reset has %d series, want the 1 just recreated", len(reg.Snapshot()))
	}
}

func TestStageHelper(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace("frame")
	done := Stage(reg, tr, "demod")
	done()
	h := reg.Histogram(StageSecondsMetric, nil, "stage", "demod")
	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "demod" {
		t.Fatalf("trace roots = %+v, want one demod span", roots)
	}
	// Both sinks optional.
	Stage(nil, nil, "noop")()
}
