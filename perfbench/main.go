// Command perfbench is the repository's end-to-end benchmark. It builds
// one workload's inputs from a seed, drives the layers through their
// public functions for a fixed time, checks every output, and prints
// the metrics named in BENCHMARK.json as the last line of its output:
//
//	perfbench --workload pivot-link --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced for half the time and traced for the other
// half, and reports the per-layer metrics: span self times, counters of
// the layers and of the Go runtime, the tracing overhead, and how much
// of the timed wall time the layer rows account for. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"wazabee/internal/obs"
)

// workload is one prepared set of inputs. measure runs whole windows of
// work — at least one — until d has elapsed, and may be called more
// than once on the same inputs.
type workload interface {
	measure(d time.Duration, traced bool) *outcome
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64) (workload, error){
	"pivot-link": setupPivotLink,
	"sniff":      setupSniff,
	"mesh":       setupMesh,
	"campaign":   setupCampaign,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload with --trace 0. What an
// operation is depends on the workload; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "op/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"success_rate", "ratio"},
}

// perLayer is reported by every workload with --trace 1; a layer the
// workload does not exercise reads zero.
var perLayer = []metricDef{
	{"ble.modulate_us", "us"},
	{"ble.modulate_allocs", "allocs"},
	{"ieee802154.modulate_us", "us"},
	{"ieee802154.demod_us", "us"},
	{"ieee802154.parse_us", "us"},
	{"radio.deliver_us", "us"},
	{"core.rx_push_us", "us"},
	{"core.rx_push_us_per_air_ms", "us/ms"},
	{"core.rx_correlate_us", "us"},
	{"core.rx_despread_us", "us"},
	{"core.rx_flush_us", "us"},
	{"core.rx_push_allocs", "allocs"},
	{"core.rx_sync_fail_ratio", "ratio"},
	{"core.rx_gate_drop_ratio", "ratio"},
	{"capture.record_us", "us"},
	{"capture.publish_us", "us"},
	{"capture.queue_wait_us", "us"},
	{"capture.pcap_write_us", "us"},
	{"capture.zep_encode_us", "us"},
	{"capture.dropped_ratio", "ratio"},
	{"sim.build_ms", "ms"},
	{"sim.join_wall_ms_per_virtual_s", "ms"},
	{"sim.steady_wall_ms_per_virtual_s", "ms"},
	{"sim.allocs_per_event", "allocs"},
	{"sim.alloc_bytes_per_event", "B"},
	{"sim.observer_us_per_capture", "us"},
	{"sim.events", "count"},
	{"sim.frames", "count"},
	{"sim.heap_max_depth", "count"},
	{"sim.collision_ratio", "ratio"},
	{"sim.retry_ratio", "ratio"},
	{"sim.erasure_ratio", "ratio"},
	{"sim.cca_failure_ratio", "ratio"},
	{"campaign.setup_ms", "ms"},
	{"campaign.simulate_ms.benign-baseline", "ms"},
	{"campaign.simulate_ms.scenario-a-injection", "ms"},
	{"campaign.simulate_ms.channel-migration", "ms"},
	{"campaign.simulate_ms.association-flood", "ms"},
	{"campaign.simulate_ms.energy-depletion", "ms"},
	{"campaign.simulate_ms.sleep-deprivation", "ms"},
	{"campaign.simulate_ms.replay-impersonation", "ms"},
	{"campaign.score_ms", "ms"},
	{"campaign.cell_trials", "count"},
	{"runner.efficiency", "ratio"},
	{"campaign.unattributed_s", "s"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 9

// timeUnits are the units of metrics that time work on the host. They
// are reported at the reference speed (see refTime); rates are divided
// by the same factor.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "us/ms": true}

// coverageTolerance bounds how far the layer rows of a traced run may
// fall from the timed wall time: the rest is the benchmark's own glue
// between calls.
const coverageTolerance = 0.10

// outcome is what one timed phase measured.
type outcome struct {
	tr *tracer // spans of the driving goroutine

	attempted, failed int
	failures          []string

	wall    time.Duration   // timed phase, on the driving goroutine
	rates   []float64       // operations per second of each window of work
	latency []float64       // per-operation latencies, µs
	latEnds []int           // where each window's latencies end in latency
	refs    []time.Duration // refTime readings taken between windows
	success float64

	// Counters the traced pivot-link and sniff phases keep.
	airUS                float64 // air time of the IQ pushed to RxStream
	txAllocs, pushAllocs uint64
	pushes               int

	layers map[string]float64
}

// fail counts one failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

// calibrate reads the host's speed; workloads call it between windows
// of work, outside every timed interval.
func (o *outcome) calibrate() { o.refs = append(o.refs, refTime()) }

// speed is how fast the host ran during the phase relative to the
// reference speed.
func (o *outcome) speed() float64 { return speedOf(o.refs) }

// opsPerS is the median throughput over the phase's windows, at the
// reference speed. The median keeps a window slowed by a burst on the
// host from moving it.
func (o *outcome) opsPerS() float64 {
	return median(append([]float64(nil), o.rates...)) / o.speed()
}

// endLatencyWindow closes the current window of latencies.
func (o *outcome) endLatencyWindow() { o.latEnds = append(o.latEnds, len(o.latency)) }

// latencyQuantile is the q-quantile of each window's latencies, median
// over the windows: like throughput, it is kept from moving by a burst
// on the host that slows a few windows.
func (o *outcome) latencyQuantile(q float64) float64 {
	var qs []float64
	from := 0
	for _, end := range o.latEnds {
		if end > from {
			qs = append(qs, quantile(append([]float64(nil), o.latency[from:end]...), q))
		}
		from = end
	}
	return median(qs)
}

// runtimeLayers adds the Go runtime's rows for the phase since rc0.
func (o *outcome) runtimeLayers(rc0 runtimeCounters) {
	rc := readRuntime()
	o.layer("runtime.gc_pause_ms_per_s", (rc.gcPause-rc0.gcPause)*1e3/o.wall.Seconds())
}

// series finds one series of a registry snapshot by name and labels.
func series(snap []obs.SeriesSnapshot, name string, labels ...string) obs.SeriesSnapshot {
next:
	for _, s := range snap {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		return s
	}
	return obs.SeriesSnapshot{}
}

// counterDelta is how much a counter grew between two snapshots.
func counterDelta(after, before []obs.SeriesSnapshot, name string, labels ...string) float64 {
	return series(after, name, labels...).Value - series(before, name, labels...).Value
}

// histSum is how much a histogram's sum grew between two snapshots.
func histSum(after, before []obs.SeriesSnapshot, name string, labels ...string) float64 {
	return series(after, name, labels...).Sum - series(before, name, labels...).Sum
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line printed before the result: the environment the
// figures were measured in and the detail behind them.
type report struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Trace          int       `json:"trace"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	NumCPU         int       `json:"numcpu"`
	GoVersion      string    `json:"go_version"`
	Commit         string    `json:"commit"`
	Source         string    `json:"source_sha256"`
	SetupSeconds   []float64 `json:"setup_seconds"`
	LatencySamples int       `json:"latency_samples"`
	WindowRates    []float64 `json:"window_rates"` // as measured, not scaled
	TimedSeconds   float64   `json:"timed_seconds"`
	Speed          float64   `json:"speed"`
	LatencyP99US   float64   `json:"latency_p99_us,omitempty"`
	Coverage       float64   `json:"coverage,omitempty"`
	OverheadRatio  float64   `json:"overhead_ratio,omitempty"`
	Failures       []string  `json:"failures,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: pivot-link, sniff, mesh or campaign")
	seed := flags.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flags.Float64("seconds", 10, "length of the timed phase")
	trace := flags.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (pivot-link, sniff, mesh, campaign), --seconds > 0 and --trace 0|1\n")
		return 2
	}

	rep := report{
		Workload: *name, Seed: *seed, Trace: *trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), Source: sourceDigest("."),
	}
	var w workload
	var setupRefs []time.Duration
	for i := 0; i < setupRuns; i++ {
		w = nil
		runtime.GC()
		setupRefs = append(setupRefs, refTime())
		start := time.Now()
		var err error
		if w, err = setup(*seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(start).Seconds())
	}
	runtime.GC()
	d := time.Duration(*seconds * float64(time.Second))

	res := result{Metrics: map[string]metricValue{}}
	var o *outcome
	if *trace == 0 {
		heap := startHeapSampler()
		o = w.measure(d, false)
		peak := heap.finish()
		speed := o.speed()
		values := map[string]float64{
			"setup_s":        median(append([]float64(nil), rep.SetupSeconds...)) * speedOf(setupRefs),
			"peak_heap_mb":   peak,
			"ops_per_s":      o.opsPerS(),
			"latency_p50_us": o.latencyQuantile(0.50) * speed,
			"latency_p90_us": o.latencyQuantile(0.90) * speed,
			"success_rate":   o.success,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		rep.Speed = speed
		rep.LatencyP99US = o.latencyQuantile(0.99) * speed
	} else {
		base := w.measure(d/2, false)
		o = w.measure(d/2, true)
		rep.Speed = o.speed()
		rep.Coverage = o.tr.selfSum().Seconds() / o.wall.Seconds()
		rep.OverheadRatio = 1 - o.opsPerS()/base.opsPerS()
		o.layer("trace.coverage_ratio", rep.Coverage)
		o.layer("trace.overhead_ratio", rep.OverheadRatio)
		if rep.Coverage < 1-coverageTolerance || rep.Coverage > 1+coverageTolerance {
			o.fail("layer rows cover %.3f of the timed wall time, outside 1±%.2f", rep.Coverage, coverageTolerance)
		}
		o.attempted += base.attempted
		o.failed += base.failed
		o.failures = append(base.failures, o.failures...)
		for _, m := range perLayer {
			v := o.layers[m.name]
			if timeUnits[m.unit] {
				v *= rep.Speed
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	rep.LatencySamples = len(o.latency)
	rep.WindowRates = o.rates
	rep.TimedSeconds = o.wall.Seconds()
	rep.Failures = o.failures
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && o.attempted > 0

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s failed %d of %d operations: %s\n",
			*name, o.failed, o.attempted, strings.Join(o.failures, "; "))
		return 1
	}
	return 0
}

// commit returns the VCS revision stamped into the binary, when it was
// built inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources, module files and embedded JSON
// tables under root, so a result names the code it measured even in a
// checkout without git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
