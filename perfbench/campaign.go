package main

import (
	"context"
	"sync"
	"time"

	"wazabee/internal/campaign"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ids"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

const (
	// campaignTrials is the per-cell sample size of one matrix.
	campaignTrials = 12
	// campaignWorkers is the runner's worker pool: one per core of the
	// two-core reference host.
	campaignWorkers = 2
	// campaignSerialTrials is how many trials per scenario the traced
	// run's serial pass times.
	campaignSerialTrials = 3
)

// instanceTimes collects the Setup-to-Score wall time of every scenario
// instance the matrix runs, from whichever worker ran it.
type instanceTimes struct {
	mu sync.Mutex
	us []float64
}

func (t *instanceTimes) add(d time.Duration) {
	t.mu.Lock()
	t.us = append(t.us, float64(d.Nanoseconds())/1e3)
	t.mu.Unlock()
}

// timedScenario wraps a catalogue scenario so each instance it sets up
// reports its lifetime.
type timedScenario struct {
	campaign.Scenario
	times *instanceTimes
}

func (s timedScenario) Setup(opts campaign.Options) (campaign.Instance, error) {
	start := time.Now()
	inst, err := s.Scenario.Setup(opts)
	if err != nil {
		return nil, err
	}
	return &timedInstance{Instance: inst, start: start, times: s.times}, nil
}

type timedInstance struct {
	campaign.Instance
	start time.Time
	times *instanceTimes
}

func (i *timedInstance) Score() campaign.Outcome {
	out := i.Instance.Score()
	i.times.add(time.Since(i.start))
	return out
}

type campaignWL struct {
	seed      int64
	reg       *obs.Registry
	times     *instanceTimes
	spec      campaign.MatrixSpec
	catalogue []campaign.Scenario
	digest    string // of the first matrix; every later one must equal it
}

func setupCampaign(seed int64) (workload, error) {
	w := &campaignWL{seed: seed, reg: obs.NewRegistry(), times: &instanceTimes{}, catalogue: campaign.Catalogue()}
	var wrapped []campaign.Scenario
	for _, sc := range w.catalogue {
		wrapped = append(wrapped, timedScenario{Scenario: sc, times: w.times})
	}
	w.spec = campaign.MatrixSpec{
		Scenarios:  wrapped,
		Thresholds: campaign.DefaultThresholds,
		Trials:     campaignTrials,
		Seed:       seed,
		Workers:    campaignWorkers,
		Fidelity:   radio.FidelityFrame,
		Obs:        w.reg,
	}
	// One run of every scenario loads the calibration tables and warms
	// the allocator before anything is timed.
	for _, sc := range w.catalogue {
		inst, err := sc.Setup(campaign.Options{Seed: seed, Fidelity: radio.FidelityFrame})
		if err != nil {
			return nil, err
		}
		if err := inst.Run(); err != nil {
			return nil, err
		}
		inst.Score()
	}
	return w, nil
}

// measure runs whole matrices until d has elapsed. Throughput is cell
// trials per second of RunMatrix, the median over matrices.
func (w *campaignWL) measure(d time.Duration, traced bool) *outcome {
	o := &outcome{tr: newTracer(traced)}
	tr := o.tr
	rc0 := readRuntime()
	before := w.reg.Snapshot()
	w.times.us = nil
	start := time.Now()

	var serialTrial time.Duration
	if traced {
		serialTrial = w.serialPass(o)
	}

	var matrixWall time.Duration
	var cellTrials int
	for more := true; more; more = time.Since(start) < d {
		o.calibrate()
		win := startWindow()
		tr.begin("campaign.run_matrix")
		m, err := campaign.RunMatrix(context.Background(), w.spec)
		tr.end()
		wall, busy := time.Since(win.start), win.busy()
		if err != nil {
			o.fail("RunMatrix: %v", err)
			break
		}
		trials := 0
		for _, c := range m.Cells {
			trials += c.Trials
		}
		o.attempted += trials
		cellTrials += trials
		matrixWall += wall
		o.rates = append(o.rates, float64(trials)/busy.Seconds())
		o.latency = append(o.latency, w.times.us...)
		w.times.us = w.times.us[:0]
		o.endLatencyWindow()
		o.success = w.check(m, o)
	}
	o.wall = time.Since(start)

	if traced {
		after := w.reg.Snapshot()
		matrices := tr.count("campaign.run_matrix")
		perMatrix := counterDelta(after, before, runner.TrialsMetric, "spec", "campaign") / float64(matrices)
		wallPer := matrixWall.Seconds() / float64(matrices)
		o.layer("campaign.cell_trials", perMatrix)
		o.layer("runner.efficiency", ratio(perMatrix*serialTrial.Seconds(), wallPer*campaignWorkers))
		o.layer("campaign.unattributed_s", wallPer-perMatrix*serialTrial.Seconds()/campaignWorkers)
		o.runtimeLayers(rc0)
	}
	return o
}

// check verifies one matrix — same digest as the first, no benign alert
// at the default threshold — and returns the mean detection rate of
// the attack cells at that threshold.
func (w *campaignWL) check(m *campaign.Matrix, o *outcome) float64 {
	if d := m.Digest(); w.digest == "" {
		w.digest = d
	} else if d != w.digest {
		o.fail("same-seed matrix digest %s, want %s", d, w.digest)
	}
	var tpr float64
	attacks := 0
	for _, c := range m.Cells {
		if c.Threshold != ids.DefaultFingerprintThreshold {
			continue
		}
		roc, ok := c.ROC(campaign.DetectorAny)
		if !ok {
			o.fail("cell %s has no %q detector", c.Scenario, campaign.DetectorAny)
			continue
		}
		if !c.Attack {
			if roc.Count != 0 {
				o.fail("benign baseline raised %d alerts at the default threshold", roc.Count)
			}
			continue
		}
		tpr += roc.Rate
		attacks++
	}
	if attacks == 0 {
		o.fail("no attack cell at the default threshold")
		return 0
	}
	return tpr / float64(attacks)
}

// serialPass times Setup, Run and Score of each scenario on this
// goroutine alone and returns the mean wall time of one trial.
func (w *campaignWL) serialPass(o *outcome) time.Duration {
	tr := o.tr
	var total time.Duration
	n := 0
	for _, sc := range w.catalogue {
		for j := 0; j < campaignSerialTrials; j++ {
			t0 := time.Now()
			opts := campaign.Options{Seed: runner.TrialSeed(w.seed, "perfbench/"+sc.Name(), j), Fidelity: radio.FidelityFrame}
			tr.begin("campaign.setup")
			inst, err := sc.Setup(opts)
			tr.end()
			if err != nil {
				o.fail("%s setup: %v", sc.Name(), err)
				continue
			}
			tr.begin("campaign.simulate." + sc.Name())
			err = inst.Run()
			tr.end()
			if err != nil {
				o.fail("%s run: %v", sc.Name(), err)
				continue
			}
			tr.begin("campaign.score")
			inst.Score()
			tr.end()
			total += time.Since(t0)
			n++
		}
		o.layer("campaign.simulate_ms."+sc.Name(), perUS(tr.self("campaign.simulate."+sc.Name()), tr.count("campaign.simulate."+sc.Name()))/1e3)
	}
	o.layer("campaign.setup_ms", perUS(tr.self("campaign.setup"), tr.count("campaign.setup"))/1e3)
	o.layer("campaign.score_ms", perUS(tr.self("campaign.score"), tr.count("campaign.score"))/1e3)
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
