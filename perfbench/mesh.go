package main

import (
	"math/rand"
	"sync"
	"time"

	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee/sim"
)

// meshVirtual is the virtual time one mesh repeat simulates, advanced
// in 1-virtual-second batches as wazabeesim does. The 1,111-node tree
// finishes joining after about two virtual minutes, so a repeat covers
// both the association storm and steady reporting.
const meshVirtual = 180

// meshCalibrateEvery is how many batches run between host-speed
// readings; the readings sit between batches, outside their timing.
const meshCalibrateEvery = 30

// meshObserverBuffer is the capture buffer between the event loop and
// the digest observer: deep enough that the loop rarely waits on the
// observer goroutine, as with wazabeesim's taps.
const meshObserverBuffer = 1024

// meshSeeds is how many network seeds the repeats cycle through. How
// long the association storm lasts depends on the seed; averaging over
// three keeps one run's figures close to the next run's.
const meshSeeds = 3

// meshRun is what one repeat produced; same-seed repeats must agree.
type meshRun struct {
	stats  sim.Stats
	digest string
}

type mesh struct {
	topo  sim.Topology
	seeds []int64
	next  int                // repeats so far, which picks the next seed
	refs  map[int64]*meshRun // the first repeat of each seed
}

func setupMesh(seed int64) (workload, error) {
	w := &mesh{topo: sim.Tree(3, 10), refs: map[int64]*meshRun{}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < meshSeeds; i++ {
		w.seeds = append(w.seeds, rng.Int63())
	}
	if _, err := w.build(w.seeds[0]); err != nil {
		return nil, err
	}
	return w, nil
}

// build instantiates the wazabeesim default network: frame tier,
// telemetry off, a private registry.
func (w *mesh) build(seed int64) (*sim.Network, error) {
	return sim.New(w.topo, sim.Config{
		Seed:     seed,
		Fidelity: radio.FidelityFrame,
		Registry: obs.NewRegistry(),
		Flight:   obs.NewFlight(64),
	})
}

// measure simulates repeats of meshVirtual seconds on fresh networks,
// cycling through the seeds, until d has elapsed. Throughput is virtual
// seconds per second of Run; latency is the wall time of one
// 1-virtual-second batch.
func (w *mesh) measure(d time.Duration, traced bool) *outcome {
	o := &outcome{tr: newTracer(traced)}
	tr := o.tr
	obsTr := newTracer(traced)
	var joinWall, steadyWall time.Duration
	var joinBatches, steadyBatches int
	var runAllocs, runBytes, runEvents uint64
	busy := map[int64][]float64{} // Run time of each repeat, by seed
	lat := map[int64][]float64{}  // batch latencies, µs, by seed
	rcPhase := readRuntime()
	start := time.Now()
	for more := true; more; more = time.Since(start) < d {
		seed := w.seeds[w.next%len(w.seeds)]
		w.next++
		tr.begin("sim.build")
		nw, err := w.build(seed)
		tr.end()
		if err != nil {
			o.fail("build: %v", err)
			break
		}
		observer := nw.Observe(sim.DefaultChannel, meshObserverBuffer)
		rec := sim.NewDigestRecorder()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fc := range observer.C() {
				obsTr.begin("sim.observer")
				rec.Record(fc)
				obsTr.end()
			}
		}()

		rc0 := readRuntime()
		var runBusy time.Duration
		joined := false
		for s := 1; s <= meshVirtual; s++ {
			if s%meshCalibrateEvery == 1 {
				o.calibrate()
			}
			o.attempted++
			win := startWindow()
			tr.begin("sim.run")
			nw.Run(time.Duration(s) * time.Second)
			tr.end()
			bw := time.Since(win.start)
			runBusy += win.busy()
			lat[seed] = append(lat[seed], float64(bw.Nanoseconds())/1e3)
			if joined {
				steadyWall += bw
				steadyBatches++
			} else {
				joinWall += bw
				joinBatches++
				st := nw.Stats()
				joined = st.Joined == st.Nodes
			}
		}
		nw.CloseObservers()
		wg.Wait()
		rc1 := readRuntime()
		runAllocs += rc1.allocs - rc0.allocs
		runBytes += rc1.allocBytes - rc0.allocBytes
		busy[seed] = append(busy[seed], runBusy.Seconds())

		got := &meshRun{stats: nw.Stats(), digest: rec.Sum()}
		runEvents += got.stats.Events
		if ref := w.refs[seed]; ref == nil {
			w.refs[seed] = got
		} else if *got != *ref {
			o.fail("repeat of seed %d differs: digest %s, want %s", seed, got.digest, ref.digest)
		}
	}
	// Counts and ratios are those of one repeat, averaged over the seeds
	// run so far; they do not depend on the host.
	var sum sim.Stats
	for _, ref := range w.refs {
		s := ref.stats
		sum.Events += s.Events
		sum.Frames += s.Frames
		sum.HeapDepth += s.HeapDepth
		sum.Collisions += s.Collisions
		sum.Retries += s.Retries
		sum.Erasures += s.Erasures
		sum.CCAFailures += s.CCAFailures
		sum.Backoffs += s.Backoffs
	}
	n := float64(len(w.refs))
	o.wall = time.Since(start)
	// One rate for the phase: the seeds run have different storms, so
	// each seed's repeats are reduced to their median before summing.
	var virtual, secs float64
	for _, b := range busy {
		virtual += meshVirtual
		secs += median(b)
	}
	o.rates = []float64{virtual / secs}
	// Latency windows are seeds too: each seed's batches form one.
	for _, seed := range w.seeds {
		o.latency = append(o.latency, lat[seed]...)
		o.endLatencyWindow()
	}
	o.success = 1 - ratio(float64(sum.Collisions), float64(sum.Frames))
	if traced {
		o.layer("sim.build_ms", perUS(tr.self("sim.build"), tr.count("sim.build"))/1e3)
		o.layer("sim.join_wall_ms_per_virtual_s", perUS(joinWall, joinBatches)/1e3)
		o.layer("sim.steady_wall_ms_per_virtual_s", perUS(steadyWall, steadyBatches)/1e3)
		o.layer("sim.allocs_per_event", ratio(float64(runAllocs), float64(runEvents)))
		o.layer("sim.alloc_bytes_per_event", ratio(float64(runBytes), float64(runEvents)))
		o.layer("sim.observer_us_per_capture", perUS(obsTr.self("sim.observer"), obsTr.count("sim.observer")))
		o.layer("sim.events", ratio(float64(sum.Events), n))
		o.layer("sim.frames", ratio(float64(sum.Frames), n))
		o.layer("sim.heap_max_depth", ratio(float64(sum.HeapDepth), n))
		o.layer("sim.collision_ratio", ratio(float64(sum.Collisions), float64(sum.Frames)))
		o.layer("sim.retry_ratio", ratio(float64(sum.Retries), float64(sum.Frames)))
		o.layer("sim.erasure_ratio", ratio(float64(sum.Erasures), float64(sum.Frames)))
		o.layer("sim.cca_failure_ratio", ratio(float64(sum.CCAFailures), float64(sum.Backoffs)))
		o.runtimeLayers(rcPhase)
	}
	return o
}
