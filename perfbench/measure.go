package main

import (
	"math"
	"math/cmplx"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// One tracer belongs to one goroutine: spans nest on a stack, and a
// span's self time is its duration minus the time its child spans
// cover. Ended spans fold into per-name totals straight away, so a long
// run keeps a fixed amount of memory. A disabled tracer (the untraced
// run) makes begin and end a single branch.
type tracer struct {
	on    bool
	stack []openSpan
	rows  map[string]*spanRow
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
}

// spanRow is the accumulated record of every span of one name.
type spanRow struct {
	count int
	total time.Duration // wall time, children included
	self  time.Duration // wall time minus child spans
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, rows: map[string]*spanRow{}}
}

// begin opens a span; pair every begin with one end.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	sp := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(sp.start)
	row := t.rows[sp.name]
	if row == nil {
		row = &spanRow{}
		t.rows[sp.name] = row
	}
	row.count++
	row.total += d
	row.self += d - sp.children
	if n > 0 {
		t.stack[n-1].children += d
	}
}

// self returns the summed self time of every span called name.
func (t *tracer) self(name string) time.Duration {
	if row := t.rows[name]; row != nil {
		return row.self
	}
	return 0
}

// count returns how many spans called name ended.
func (t *tracer) count(name string) int {
	if row := t.rows[name]; row != nil {
		return row.count
	}
	return 0
}

// selfSum returns the self time of every span, which is the time the
// goroutine spent inside a traced call.
func (t *tracer) selfSum() time.Duration {
	var sum time.Duration
	for _, row := range t.rows {
		sum += row.self
	}
	return sum
}

// perUS divides a duration by n and expresses it in microseconds; zero
// when n is zero (the layer did no work on this workload).
func perUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// ratio is num/den, zero for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Runtime counters read through runtime/metrics.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mHeapLive     = "/gc/heap/live:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCPauseCPU   = "/cpu/classes/gc/pause:cpu-seconds"
)

// runtimeCounters is one reading of the process-wide allocation and
// GC-pause counters.
type runtimeCounters struct {
	allocs, allocBytes uint64
	gcPause            float64 // seconds of wall time, summed over pauses
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCPauseCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		// Pause CPU time is charged to every P the pause stops.
		gcPause: s[2].Value.Float64() / float64(runtime.GOMAXPROCS(0)),
	}
}

// allocCount reads the process-wide count of heap allocations. The
// traced run brackets single calls with it on a goroutine that is the
// only one allocating.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: mAllocObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the live heap — the bytes a garbage collection
// found reachable — at the end of every collection while a timed phase
// runs. It polls on its own goroutine, which sleeps between reads and
// does no work of its own.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	live []float64 // MB (2^20 bytes), one per collection
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mGCCycles}, {Name: mHeapLive}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in MB, taken
// as the 90th percentile over collections: objects allocated while a
// collection marks count as live, so the single largest reading
// depends on which collection overlapped the most in-flight work.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return quantile(h.live, 0.9)
}

// refNominal is the time refTime reads on the reference host (a
// two-core Xeon VM) when nothing else loads it.
const refNominal = 3 * time.Millisecond

// refBuf is the reference kernel's working set; refSink keeps the
// kernel's results alive.
var (
	refBuf  = make([]complex128, 32768)
	refSink float64
)

// refTime times a fixed piece of work in the mix the workloads run:
// sine and cosine, complex multiply-adds and a phase, streamed through
// a 512 KiB buffer. The host is a shared VM whose speed drifts by tens
// of percent within minutes; the kernel's duration tracks that drift,
// and the timings the benchmark reports are scaled by
// refNominal/refTime so that they read as if measured at the reference
// speed. The kernel is the benchmark's own code, so no change to the
// program under test moves it.
func refTime() time.Duration {
	refSink += refPass() // untimed: bring refBuf into cache whatever ran before
	start := time.Now()
	refSink += refPass() + refPass()
	return time.Since(start)
}

func refPass() float64 {
	acc, ph := 0.0, 0.0
	for i := range refBuf {
		ph += 0.01
		sn, cs := math.Sincos(ph)
		refBuf[i] = refBuf[i]*0.5 + complex(cs, sn)
		acc += cmplx.Phase(refBuf[i])
	}
	return acc
}

// speedOf is how fast the host ran relative to the reference speed:
// refNominal over the median of the refTime readings, 1 without any.
func speedOf(refs []time.Duration) float64 {
	if len(refs) == 0 {
		return 1
	}
	secs := make([]float64, len(refs))
	for i, r := range refs {
		secs[i] = r.Seconds()
	}
	return refNominal.Seconds() / median(secs)
}

// stealSeconds reads the time the hypervisor has taken the CPUs away
// from this VM, summed over CPUs, from /proc/stat; zero where the file
// is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat: 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// window times one window of work on the host.
type window struct {
	start time.Time
	steal float64
}

func startWindow() window {
	steal := stealSeconds()
	return window{start: time.Now(), steal: steal}
}

// busy is the window's wall time less the hypervisor's steal over that
// time, shared evenly between the CPUs: the time the VM ran. /proc/stat
// counts in 10 ms ticks, so a reading is trusted up to half the window.
func (w window) busy() time.Duration {
	wall := time.Since(w.start)
	stolen := time.Duration((stealSeconds() - w.steal) / float64(runtime.NumCPU()) * float64(time.Second))
	return wall - min(stolen, wall/2)
}
