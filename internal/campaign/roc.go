package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"wazabee/internal/experiment/runner"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// Metric families published by the campaign driver. The runner's own
// wazabee_runner_* families cover trial-level progress; these summarise
// the campaign sweep itself.
const (
	// CellsMetric counts (scenario, threshold) cells derived.
	CellsMetric = "wazabee_campaign_cells_total"
	// TrialsMetric counts scenario runs executed: one per (scenario,
	// trial), whatever the number of thresholds.
	TrialsMetric = "wazabee_campaign_trials_total"
	// DetectionsMetric counts, per detector, the trials it fired on,
	// summed over every threshold's cell.
	DetectionsMetric = "wazabee_campaign_detections_total"
)

// DefaultThresholds is the IDS operating-point sweep: 0.22 sits inside
// the native O-QPSK tail (false positives become measurable), 0.27 is
// the calibrated default, 0.45 is past the diverted GFSK mean (true
// positives become scarce). Together they trace a non-degenerate ROC.
var DefaultThresholds = []float64{0.22, 0.27, 0.45}

// Outcome classes the matrix tallies. A trial's class names which
// detectors fired inside the attack window.
const (
	ClassUndetected  = "undetected"
	ClassFingerprint = "fingerprint"
	ClassFraming     = "framing"
	ClassBoth        = "framing+fingerprint"
)

// Classes is the full outcome class set, in report order.
var Classes = []string{ClassUndetected, ClassFingerprint, ClassFraming, ClassBoth}

// class maps a detection onto the class alphabet.
func (d Detection) class() string {
	switch {
	case d.Framing && d.Fingerprint:
		return ClassBoth
	case d.Framing:
		return ClassFraming
	case d.Fingerprint:
		return ClassFingerprint
	default:
		return ClassUndetected
	}
}

// MatrixSpec parameterises a campaign sweep: every selected scenario
// run Trials times, each run scored at every IDS threshold.
type MatrixSpec struct {
	// Scenarios selects catalogue entries; empty means the whole
	// catalogue. The benign baseline is always included — it supplies
	// the false-positive rate for every threshold.
	Scenarios []Scenario
	// Thresholds is the IDS operating-point sweep; empty selects
	// DefaultThresholds.
	Thresholds []float64
	// Trials is the Monte-Carlo sample size per scenario (and so per
	// cell); <= 0 means 200.
	Trials int
	// Seed roots every trial's derived seed.
	Seed int64
	// Workers bounds the runner's pool; <= 0 means GOMAXPROCS.
	Workers int
	// Fidelity, SNRdB, Duration, Devices, Chip parameterise every
	// scenario instance (zero values select the Options defaults).
	Fidelity radio.Fidelity
	SNRdB    float64
	Duration time.Duration
	Devices  int
	Chip     string
	// Checkpoint, when non-empty, makes the sweep resumable.
	Checkpoint string
	// Obs receives campaign and runner telemetry; nil falls back to the
	// process default registry.
	Obs *obs.Registry
}

// DefaultTrials is the per-scenario sample size when the spec names none.
const DefaultTrials = 200

func (s *MatrixSpec) fill() error {
	if len(s.Scenarios) == 0 {
		s.Scenarios = Catalogue()
	} else {
		hasBenign := false
		for _, sc := range s.Scenarios {
			if !sc.Attack() {
				hasBenign = true
			}
		}
		if !hasBenign {
			benign, err := ByName("benign-baseline")
			if err != nil {
				return err
			}
			s.Scenarios = append([]Scenario{benign}, s.Scenarios...)
		}
	}
	if len(s.Thresholds) == 0 {
		s.Thresholds = append([]float64(nil), DefaultThresholds...)
	}
	for _, th := range s.Thresholds {
		if th <= 0 {
			return fmt.Errorf("campaign: threshold %g <= 0", th)
		}
	}
	if s.Trials <= 0 {
		s.Trials = DefaultTrials
	}
	return nil
}

// options builds one trial's scenario Options from the sweep parameters.
func (s *MatrixSpec) options(seed int64) Options {
	return Options{
		Seed:     seed,
		Fidelity: s.Fidelity,
		SNRdB:    s.SNRdB,
		Duration: s.Duration,
		Devices:  s.Devices,
		Chip:     s.Chip,
	}
}

// DetectorROC is one detector's rate at one cell, with its 95% Wilson
// interval. For attack scenarios the rate is a true-positive rate; for
// the benign baseline it is the false-positive rate at that threshold.
type DetectorROC struct {
	Detector string  `json:"detector"`
	Count    int     `json:"count"`
	Trials   int     `json:"trials"`
	Rate     float64 `json:"rate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
}

// Detector names used in DetectorROC rows.
const (
	DetectorAny         = "any"
	DetectorFingerprint = "fingerprint"
	DetectorFraming     = "framing"
)

// Detectors lists the ROC detector columns in report order.
var Detectors = []string{DetectorAny, DetectorFingerprint, DetectorFraming}

// Cell is one (scenario, threshold) cell of the matrix.
type Cell struct {
	Scenario  string  `json:"scenario"`
	Threshold float64 `json:"threshold"`
	// Attack distinguishes TPR cells from FPR (benign) cells.
	Attack bool `json:"attack"`
	Trials int  `json:"trials"`
	// Counts tallies trials by outcome class.
	Counts map[string]int `json:"counts"`
	// Detection holds one row per detector, in Detectors order.
	Detection []DetectorROC `json:"detection"`
	// MeanLatencySeconds averages detection latency over the detected
	// trials only; 0 when nothing was detected.
	MeanLatencySeconds float64 `json:"mean_latency_seconds"`
}

// ROC returns the named detector's row and false when absent.
func (c *Cell) ROC(detector string) (DetectorROC, bool) {
	for _, d := range c.Detection {
		if d.Detector == detector {
			return d, true
		}
	}
	return DetectorROC{}, false
}

// Impact is one scenario's attack-effect measurements averaged over its
// matrix trials — the same runs every threshold's cell is scored on
// (thresholds do not feed back into the mesh).
type Impact struct {
	Scenario                 string  `json:"scenario"`
	FramesInjected           float64 `json:"frames_injected"`
	FramesAccepted           float64 `json:"frames_accepted"`
	NodesDisrupted           float64 `json:"nodes_disrupted"`
	ChannelMigrations        float64 `json:"channel_migrations"`
	Readings                 float64 `json:"readings"`
	EnergyMicrojoules        float64 `json:"energy_microjoules"`
	EnergyDrainedMicrojoules float64 `json:"energy_drained_microjoules"`
}

// Matrix is a completed campaign sweep: the attack-vs-detection ROC
// matrix plus per-scenario impact averages. It contains no timing, so
// byte-comparing two marshalled matrices is a valid determinism check.
type Matrix struct {
	Name       string    `json:"name"`
	Seed       int64     `json:"seed"`
	Fidelity   string    `json:"fidelity"`
	Trials     int       `json:"trials_per_cell"`
	Scenarios  []string  `json:"scenarios"`
	Thresholds []float64 `json:"thresholds"`
	Cells      []Cell    `json:"cells"`
	Impacts    []Impact  `json:"impacts"`
}

// Cell returns the named cell and false when absent.
func (m *Matrix) Cell(scenario string, threshold float64) (*Cell, bool) {
	for i := range m.Cells {
		if m.Cells[i].Scenario == scenario && m.Cells[i].Threshold == threshold {
			return &m.Cells[i], true
		}
	}
	return nil, false
}

// scoredClass is the runner class of every campaign trial: the
// per-threshold classes ride in the value vector instead.
const scoredClass = "scored"

// Each trial hands the runner one value vector: per threshold, the
// one-hot outcome class (in Classes order) and the detection latency in
// seconds (0 when undetected); then the impact fields. The runner
// averages it component-wise in canonical trial order.
var perThreshold = len(Classes) + 1

var impactNames = []string{
	"frames_injected", "frames_accepted", "nodes_disrupted",
	"channel_migrations", "readings", "energy_microjoules",
	"energy_drained_microjoules",
}

// valueNames names the trial vector's components. The names carry the
// exact thresholds, so the runner's checkpoint fingerprint refuses a
// file written under another threshold list.
func valueNames(thresholds []float64) []string {
	var names []string
	for _, th := range thresholds {
		at := "@" + strconv.FormatFloat(th, 'g', -1, 64)
		for _, c := range Classes {
			names = append(names, c+at)
		}
		names = append(names, "latency_s"+at)
	}
	return append(names, impactNames...)
}

// trialValues scores one run at every threshold into its value vector.
func trialValues(out *Outcome, thresholds []float64) []float64 {
	v := make([]float64, 0, len(thresholds)*perThreshold+len(impactNames))
	for _, th := range thresholds {
		d := out.Score.At(th)
		class := d.class()
		for _, c := range Classes {
			hit := 0.0
			if c == class {
				hit = 1
			}
			v = append(v, hit)
		}
		latency := 0.0
		if d.Detected() {
			latency = d.Latency.Seconds()
		}
		v = append(v, latency)
	}
	return append(v,
		float64(out.FramesInjected), float64(out.FramesAccepted),
		float64(out.NodesDisrupted), float64(out.ChannelMigrations),
		float64(out.Readings), out.EnergyMicrojoules, out.EnergyDrainedMicrojoules)
}

// RunMatrix executes the sweep: every scenario's trials as one
// Monte-Carlo point on the experiment runner (bit-identical at any
// worker count, resumable through spec.Checkpoint), each trial run
// once and scored at every threshold. Every cell and the impact table
// derive from that one set of trials; the benign baseline rides along,
// so each attack cell's TPR has a same-threshold FPR to compare with.
func RunMatrix(ctx context.Context, spec MatrixSpec) (*Matrix, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	reg := obs.Or(spec.Obs)
	trialsC := reg.Counter(TrialsMetric)

	scenarios := make(map[string]Scenario, len(spec.Scenarios))
	points := make([]runner.Point, len(spec.Scenarios))
	for i, sc := range spec.Scenarios {
		scenarios[sc.Name()] = sc
		points[i] = runner.Point{Key: sc.Name(), Trials: spec.Trials}
	}

	trial := func(_ context.Context, seed int64, point runner.Point, _ int) (runner.Outcome, error) {
		inst, err := scenarios[point.Key].Setup(spec.options(seed))
		if err != nil {
			return runner.Outcome{}, err
		}
		if err := inst.Run(); err != nil {
			return runner.Outcome{}, err
		}
		out := inst.Score()
		trialsC.Inc()
		return runner.Outcome{Class: scoredClass, Values: trialValues(&out, spec.Thresholds)}, nil
	}

	res, err := runner.Run(ctx, runner.Spec{
		Name:       "campaign",
		Seed:       spec.Seed,
		Points:     points,
		Workers:    spec.Workers,
		Classes:    []string{scoredClass},
		Values:     valueNames(spec.Thresholds),
		Checkpoint: spec.Checkpoint,
		Obs:        spec.Obs,
	}, trial)
	if err != nil {
		return nil, err
	}

	m := &Matrix{
		Name:       "campaign",
		Seed:       spec.Seed,
		Fidelity:   resolveFidelity(spec.Fidelity).String(),
		Trials:     spec.Trials,
		Thresholds: append([]float64(nil), spec.Thresholds...),
	}
	for i, pr := range res.Points {
		sc := spec.Scenarios[i]
		m.Scenarios = append(m.Scenarios, sc.Name())
		for j, th := range spec.Thresholds {
			m.Cells = append(m.Cells, reduceCell(sc, th, pr.Trials, pr.Means[j*perThreshold:(j+1)*perThreshold], reg))
		}
		imp := pr.Means[len(spec.Thresholds)*perThreshold:]
		m.Impacts = append(m.Impacts, Impact{
			Scenario:                 sc.Name(),
			FramesInjected:           imp[0],
			FramesAccepted:           imp[1],
			NodesDisrupted:           imp[2],
			ChannelMigrations:        imp[3],
			Readings:                 imp[4],
			EnergyMicrojoules:        imp[5],
			EnergyDrainedMicrojoules: imp[6],
		})
	}
	reg.Counter(CellsMetric).Add(uint64(len(m.Cells)))
	return m, nil
}

// resolveFidelity mirrors Options.fill's default for reporting.
func resolveFidelity(f radio.Fidelity) radio.Fidelity {
	if f == 0 {
		return radio.FidelityFrame
	}
	return f
}

// reduceCell folds one threshold's slice of a scenario's mean value
// vector (class shares, then mean latency) into its matrix cell.
func reduceCell(sc Scenario, th float64, trials int, means []float64, reg *obs.Registry) Cell {
	c := Cell{
		Scenario:  sc.Name(),
		Threshold: th,
		Attack:    sc.Attack(),
		Trials:    trials,
		Counts:    make(map[string]int, len(Classes)),
	}
	for k, class := range Classes {
		// A share times the trial count is an exact tally up to
		// rounding in the last place.
		c.Counts[class] = int(math.Round(means[k] * float64(trials)))
	}
	detected := trials - c.Counts[ClassUndetected]
	rows := []struct {
		name  string
		count int
	}{
		{DetectorAny, detected},
		{DetectorFingerprint, c.Counts[ClassFingerprint] + c.Counts[ClassBoth]},
		{DetectorFraming, c.Counts[ClassFraming] + c.Counts[ClassBoth]},
	}
	for _, row := range rows {
		lo, hi := runner.Wilson(row.count, trials)
		rate := 0.0
		if trials > 0 {
			rate = float64(row.count) / float64(trials)
		}
		c.Detection = append(c.Detection, DetectorROC{
			Detector: row.name, Count: row.count, Trials: trials,
			Rate: rate, Lo: lo, Hi: hi,
		})
		reg.Counter(DetectionsMetric, "detector", row.name).Add(uint64(row.count))
	}
	// The latency mean runs over every trial (undetected contribute 0);
	// renormalise to the detected population.
	if detected > 0 {
		c.MeanLatencySeconds = means[len(Classes)] * float64(trials) / float64(detected)
	}
	return c
}

// WriteJSON emits the matrix as indented JSON. The encoding is
// deterministic (struct field order; map keys sorted), so the bytes —
// and Digest — are a same-seed identity check at any worker count.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Digest is the SHA-256 of the matrix's compact JSON encoding.
func (m *Matrix) Digest() string {
	b, err := json.Marshal(m)
	if err != nil {
		// Matrix contains only marshalable field types.
		panic(fmt.Sprintf("campaign: marshal matrix: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// WriteCSV emits one row per (cell, detector): the flat form for
// plotting ROC curves.
func (m *Matrix) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scenario", "threshold", "attack", "detector",
		"count", "trials", "rate", "lo", "hi", "mean_latency_seconds",
	}); err != nil {
		return err
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		for _, d := range c.Detection {
			rec := []string{
				c.Scenario,
				strconv.FormatFloat(c.Threshold, 'f', 3, 64),
				strconv.FormatBool(c.Attack),
				d.Detector,
				strconv.Itoa(d.Count),
				strconv.Itoa(d.Trials),
				strconv.FormatFloat(d.Rate, 'f', 4, 64),
				strconv.FormatFloat(d.Lo, 'f', 4, 64),
				strconv.FormatFloat(d.Hi, 'f', 4, 64),
				strconv.FormatFloat(c.MeanLatencySeconds, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders the human-readable ROC table: one block per
// threshold, one row per scenario, the detection rate (TPR, or FPR on
// the benign row) with its Wilson interval per detector, and the mean
// detection latency.
func (m *Matrix) WriteText(w io.Writer) error {
	for _, th := range m.Thresholds {
		if _, err := fmt.Fprintf(w, "threshold %.3f (trials/cell %d, fidelity %s, seed %d)\n",
			th, m.Trials, m.Fidelity, m.Seed); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-22s %-5s %-22s %-22s %-22s %s\n",
			"scenario", "kind", "any", "fingerprint", "framing", "latency"); err != nil {
			return err
		}
		for _, name := range m.Scenarios {
			c, ok := m.Cell(name, th)
			if !ok {
				continue
			}
			kind := "FPR"
			if c.Attack {
				kind = "TPR"
			}
			row := fmt.Sprintf("  %-22s %-5s", c.Scenario, kind)
			for _, det := range Detectors {
				d, _ := c.ROC(det)
				row += fmt.Sprintf(" %-22s", fmt.Sprintf("%.3f [%.3f,%.3f]", d.Rate, d.Lo, d.Hi))
			}
			if any, _ := c.ROC(DetectorAny); any.Count > 0 {
				row += fmt.Sprintf(" %.2fs", c.MeanLatencySeconds)
			} else {
				row += " -"
			}
			if _, err := fmt.Fprintln(w, row); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(m.Impacts) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "impact (mean over the %d trials/scenario above)\n", m.Trials); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s %9s %9s %10s %9s %9s %12s %12s\n",
		"scenario", "injected", "accepted", "disrupted", "migrated", "readings", "energy(uJ)", "drained(uJ)"); err != nil {
		return err
	}
	for _, imp := range m.Impacts {
		if _, err := fmt.Fprintf(w, "  %-22s %9.1f %9.1f %10.1f %9.1f %9.1f %12.1f %12.1f\n",
			imp.Scenario, imp.FramesInjected, imp.FramesAccepted, imp.NodesDisrupted,
			imp.ChannelMigrations, imp.Readings, imp.EnergyMicrojoules,
			imp.EnergyDrainedMicrojoules); err != nil {
			return err
		}
	}
	return nil
}
