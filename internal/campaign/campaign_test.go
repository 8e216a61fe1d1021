package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wazabee/internal/experiment/runner"
	"wazabee/internal/obs"
)

// runScenario executes one catalogue scenario and returns its Outcome.
func runScenario(t *testing.T, name string, opts Options) Outcome {
	t.Helper()
	sc, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Setup(opts)
	if err != nil {
		t.Fatalf("%s: setup: %v", name, err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return inst.Score()
}

// goldenSeed1 pins every scenario's full Outcome at seed 1 and default
// options, including the threshold-free score behind the detection
// fields. A diff here means the campaign's deterministic contract (or
// the mesh, monitor or energy model underneath it) changed — update the
// strings only for an intended behavior change.
var goldenSeed1 = map[string]string{
	"benign-baseline":      `{"scenario":"benign-baseline","seed":1,"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false,"alert_frames":0,"frames_injected":0,"frames_accepted":0,"nodes_disrupted":0,"channel_migrations":0,"readings":57,"energy_microjoules":3104770.1184,"energy_drained_microjoules":0,"score":{"evm_rises":[{"at_ns":232999978,"evm":0.13922697044147125},{"at_ns":941722209,"evm":0.14010075137604178},{"at_ns":1079361058,"evm":0.15481370015858423},{"at_ns":5838923529,"evm":0.158503902349608},{"at_ns":15339604430,"evm":0.16199073063165217},{"at_ns":21338324430,"evm":0.17569794755233628}],"framing_at_ns":-1}}`,
	"scenario-a-injection": `{"scenario":"scenario-a-injection","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":true,"alert_frames":40,"alerts":{"ble-framing":24,"modulation-fingerprint":40},"frames_injected":40,"frames_accepted":40,"nodes_disrupted":0,"channel_migrations":0,"readings":97,"energy_microjoules":3104701.7664,"energy_drained_microjoules":0,"score":{"evm_rises":[{"at_ns":0,"evm":0.36053456346061086},{"at_ns":500000000,"evm":0.387092772751353},{"at_ns":2500000000,"evm":0.3915961806645973},{"at_ns":6000000000,"evm":0.41426927776200323},{"at_ns":8000000000,"evm":0.4351777747110896},{"at_ns":12500000000,"evm":0.43806299393203313}],"framing_at_ns":500000000}}`,
	"channel-migration":    `{"scenario":"channel-migration","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":4,"alerts":{"modulation-fingerprint":4},"frames_injected":4,"frames_accepted":4,"nodes_disrupted":4,"channel_migrations":4,"readings":17,"energy_microjoules":3104879.4816000005,"energy_drained_microjoules":0,"score":{"evm_rises":[{"at_ns":0,"evm":0.36053456346061086},{"at_ns":750000000,"evm":0.44425632984216934}],"framing_at_ns":-1}}`,
	"association-flood":    `{"scenario":"association-flood","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":190,"alerts":{"modulation-fingerprint":190},"frames_injected":190,"frames_accepted":190,"nodes_disrupted":0,"channel_migrations":0,"readings":57,"energy_microjoules":3103438.5984,"energy_drained_microjoules":0,"score":{"evm_rises":[{"at_ns":0,"evm":0.371082731581955},{"at_ns":150000000,"evm":0.3757186907381007},{"at_ns":300000000,"evm":0.4012658008281469},{"at_ns":600000000,"evm":0.4077877967758149},{"at_ns":1800000000,"evm":0.4331394107632819},{"at_ns":1950000000,"evm":0.44987729150288513},{"at_ns":22350000000,"evm":0.4575539842760819}],"framing_at_ns":-1}}`,
	"energy-depletion":     `{"scenario":"energy-depletion","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":330,"alerts":{"modulation-fingerprint":330},"frames_injected":334,"frames_accepted":330,"nodes_disrupted":0,"channel_migrations":0,"readings":58,"energy_microjoules":3104199.2064,"energy_drained_microjoules":10905.830399999999,"score":{"evm_rises":[{"at_ns":0,"evm":0.36053456346061086},{"at_ns":60000000,"evm":0.4702885536740683},{"at_ns":1860000000,"evm":0.5023560811545574}],"framing_at_ns":-1}}`,
	"sleep-deprivation":    `{"scenario":"sleep-deprivation","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":165,"alerts":{"modulation-fingerprint":165},"frames_injected":167,"frames_accepted":165,"nodes_disrupted":0,"channel_migrations":0,"readings":222,"energy_microjoules":3103984.9728000006,"energy_drained_microjoules":12139.603200000003,"score":{"evm_rises":[{"at_ns":0,"evm":0.36053456346061086},{"at_ns":240000000,"evm":0.37484425117651127},{"at_ns":360000000,"evm":0.39333388351817977},{"at_ns":600000000,"evm":0.42387091282839584},{"at_ns":840000000,"evm":0.43834671914289125},{"at_ns":1320000000,"evm":0.44987729150288513},{"at_ns":4320000000,"evm":0.4499693947461513},{"at_ns":6360000000,"evm":0.46982800436458616},{"at_ns":17760000000,"evm":0.48152527743386836}],"framing_at_ns":-1}}`,
	"replay-impersonation": `{"scenario":"replay-impersonation","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":40,"alerts":{"modulation-fingerprint":40},"frames_injected":40,"frames_accepted":40,"nodes_disrupted":0,"channel_migrations":0,"readings":97,"energy_microjoules":3104701.7664,"energy_drained_microjoules":0,"score":{"evm_rises":[{"at_ns":0,"evm":0.36053456346061086},{"at_ns":500000000,"evm":0.387092772751353},{"at_ns":2500000000,"evm":0.3915961806645973},{"at_ns":6000000000,"evm":0.41426927776200323},{"at_ns":8000000000,"evm":0.4351777747110896},{"at_ns":12500000000,"evm":0.43806299393203313}],"framing_at_ns":-1}}`,
}

func TestScenarioGoldenOutcomes(t *testing.T) {
	for _, sc := range Catalogue() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			want, ok := goldenSeed1[sc.Name()]
			if !ok {
				t.Fatalf("no golden pinned for %s — add it", sc.Name())
			}
			out := runScenario(t, sc.Name(), Options{Seed: 1})
			got, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("outcome drifted from golden\n got: %s\nwant: %s", got, want)
			}
		})
	}
	if len(goldenSeed1) != len(Catalogue()) {
		t.Errorf("golden table has %d entries, catalogue %d", len(goldenSeed1), len(Catalogue()))
	}
}

func TestScenarioSameSeedByteIdentity(t *testing.T) {
	for _, sc := range Catalogue() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			a, err := json.Marshal(runScenario(t, sc.Name(), Options{Seed: 99}))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(runScenario(t, sc.Name(), Options{Seed: 99}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("same seed, different outcomes:\n a: %s\n b: %s", a, b)
			}
		})
	}
}

func TestScenarioSemantics(t *testing.T) {
	benign := runScenario(t, "benign-baseline", Options{Seed: 3})
	if benign.Detected || benign.FramesInjected != 0 {
		t.Errorf("benign baseline detected or injecting: %+v", benign)
	}

	injection := runScenario(t, "scenario-a-injection", Options{Seed: 3})
	if !injection.FramingDetected {
		t.Error("scenario A left no BLE framing signature")
	}
	if injection.Readings <= benign.Readings {
		t.Errorf("spoofed readings not accepted: attack %d <= benign %d",
			injection.Readings, benign.Readings)
	}

	migration := runScenario(t, "channel-migration", Options{Seed: 3})
	if migration.ChannelMigrations == 0 || migration.NodesDisrupted == 0 {
		t.Errorf("channel migration moved nothing: %+v", migration)
	}
	if migration.FramingDetected {
		t.Error("tracker-style attack flagged BLE framing")
	}

	for _, name := range []string{"energy-depletion", "sleep-deprivation"} {
		out := runScenario(t, name, Options{Seed: 3})
		if out.EnergyDrainedMicrojoules <= 0 {
			t.Errorf("%s drained %.1f µJ, want > 0", name, out.EnergyDrainedMicrojoules)
		}
	}

	replay := runScenario(t, "replay-impersonation", Options{Seed: 3})
	if replay.FramesInjected == 0 || replay.FramesAccepted == 0 {
		t.Errorf("replay injected nothing: %+v", replay)
	}
}

func TestBenignNoFalseAlertsAcrossSeeds(t *testing.T) {
	// The false-positive regression: at the calibrated default
	// threshold, three independent benign meshes must raise zero
	// framing and zero fingerprint alerts over their whole run.
	for _, seed := range []int64{1, 2, 3} {
		out := runScenario(t, "benign-baseline", Options{Seed: seed})
		for _, kind := range []string{"ble-framing", "modulation-fingerprint"} {
			if n := out.Alerts[kind]; n != 0 {
				t.Errorf("seed %d: %d %s false positives on benign traffic", seed, n, kind)
			}
		}
		if out.Detected {
			t.Errorf("seed %d: benign baseline detected (%s)", seed, out.FirstAlert)
		}
	}
}

func TestMatrixWorkerCountIndependence(t *testing.T) {
	sc, err := ByName("scenario-a-injection")
	if err != nil {
		t.Fatal(err)
	}
	spec := MatrixSpec{
		Scenarios:  []Scenario{sc},
		Thresholds: []float64{0.22, 0.27, 0.45},
		Trials:     20,
		Seed:       11,
	}
	var digests []string
	var jsons [][]byte
	for _, workers := range []int{1, 3} {
		s := spec
		s.Workers = workers
		m, err := RunMatrix(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		checkROCMonotone(t, m)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, m.Digest())
		jsons = append(jsons, buf.Bytes())
	}
	if digests[0] != digests[1] {
		t.Errorf("digest differs across worker counts: %s vs %s", digests[0], digests[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Error("matrix JSON differs across worker counts")
	}
}

// checkROCMonotone requires every scenario's fingerprint and any-detector
// counts to be non-increasing in the threshold: all thresholds score the
// same trials, so raising it can only silence alerts.
func checkROCMonotone(t *testing.T, m *Matrix) {
	t.Helper()
	for _, name := range m.Scenarios {
		for i := 1; i < len(m.Thresholds); i++ {
			lo, _ := m.Cell(name, m.Thresholds[i-1])
			hi, _ := m.Cell(name, m.Thresholds[i])
			if m.Thresholds[i] <= m.Thresholds[i-1] {
				t.Fatalf("thresholds %v not ascending", m.Thresholds)
			}
			for _, det := range []string{DetectorFingerprint, DetectorAny} {
				a, _ := lo.ROC(det)
				b, _ := hi.ROC(det)
				if b.Count > a.Count {
					t.Errorf("%s %s: %d detections at %g rise to %d at %g",
						name, det, a.Count, m.Thresholds[i-1], b.Count, m.Thresholds[i])
				}
			}
		}
	}
}

func TestMatrixShape(t *testing.T) {
	sc, err := ByName("channel-migration")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := RunMatrix(context.Background(), MatrixSpec{
		Scenarios:  []Scenario{sc},
		Thresholds: []float64{0.27},
		Trials:     5,
		Seed:       4,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One mesh run per (scenario, trial): the cells and the impact table
	// are all derived from those runs.
	if got := reg.Counter(TrialsMetric).Value(); got != 2*5 {
		t.Errorf("%s = %d, want scenarios x trials = 10", TrialsMetric, got)
	}
	// The benign baseline rides along for the FPR column.
	if len(m.Scenarios) != 2 || m.Scenarios[0] != "benign-baseline" {
		t.Fatalf("scenarios = %v, want benign first", m.Scenarios)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(m.Cells))
	}
	cell, ok := m.Cell("channel-migration", 0.27)
	if !ok {
		t.Fatal("channel-migration cell missing")
	}
	if !cell.Attack || cell.Trials != 5 {
		t.Errorf("cell = %+v", cell)
	}
	any, ok := cell.ROC(DetectorAny)
	if !ok || any.Trials != 5 {
		t.Fatalf("any-detector row = %+v, %v", any, ok)
	}
	if any.Lo > any.Rate || any.Rate > any.Hi {
		t.Errorf("Wilson interval [%v,%v] does not bracket rate %v", any.Lo, any.Hi, any.Rate)
	}
	total := 0
	for _, class := range Classes {
		total += cell.Counts[class]
	}
	if total != 5 {
		t.Errorf("class counts sum to %d, want 5: %v", total, cell.Counts)
	}
	if len(m.Impacts) != 2 {
		t.Errorf("impacts = %d, want 2", len(m.Impacts))
	}

	var csvBuf bytes.Buffer
	if err := m.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if want := 1 + len(m.Cells)*len(Detectors); len(lines) != want {
		t.Errorf("CSV rows = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "scenario,threshold,attack,detector") {
		t.Errorf("CSV header = %q", lines[0])
	}

	var txt bytes.Buffer
	if err := m.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"channel-migration", "benign-baseline", "TPR", "FPR", "impact"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text table missing %q", want)
		}
	}
}

func TestParseScenarios(t *testing.T) {
	all, err := ParseScenarios("all")
	if err != nil || len(all) != len(Catalogue()) {
		t.Fatalf("ParseScenarios(all) = %d scenarios, err %v", len(all), err)
	}
	empty, err := ParseScenarios("")
	if err != nil || len(empty) != len(Catalogue()) {
		t.Fatalf("ParseScenarios(\"\") = %d scenarios, err %v", len(empty), err)
	}
	// Selection preserves catalogue order and dedupes.
	sel, err := ParseScenarios("channel-migration, benign-baseline,channel-migration")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name() != "benign-baseline" || sel[1].Name() != "channel-migration" {
		names := make([]string, len(sel))
		for i, s := range sel {
			names[i] = s.Name()
		}
		t.Errorf("selection = %v, want catalogue-ordered dedupe", names)
	}
	if _, err := ParseScenarios("no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ParseScenarios(" , "); err == nil {
		t.Error("blank selection accepted")
	}
}

func TestOutcomeClassMapping(t *testing.T) {
	cases := []struct {
		fp, fr bool
		want   string
	}{
		{false, false, ClassUndetected},
		{true, false, ClassFingerprint},
		{false, true, ClassFraming},
		{true, true, ClassBoth},
	}
	for _, tc := range cases {
		d := Detection{Fingerprint: tc.fp, Framing: tc.fr}
		if got := d.class(); got != tc.want {
			t.Errorf("class(fp=%v, fr=%v) = %s, want %s", tc.fp, tc.fr, got, tc.want)
		}
	}
}

func TestMatrixSpecValidation(t *testing.T) {
	if _, err := RunMatrix(context.Background(), MatrixSpec{Thresholds: []float64{-0.1}}); err == nil {
		t.Error("negative threshold accepted")
	}
}

// goldenDetectionAt pins each scenario's detection fields at seed 1 under
// two non-default thresholds, as recorded by running the mesh with the
// monitor set to each threshold and taking the first in-window alert.
// Deriving the same fields from one run's threshold-free score must
// reproduce them exactly.
var goldenDetectionAt = map[float64]map[string]string{
	0.22: {
		"benign-baseline":      `{"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false}`,
		"scenario-a-injection": `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":true}`,
		"channel-migration":    `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"association-flood":    `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"energy-depletion":     `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"sleep-deprivation":    `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"replay-impersonation": `{"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
	},
	0.45: {
		"benign-baseline":      `{"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false}`,
		"scenario-a-injection": `{"detected":true,"detection_latency_ns":500000000,"first_alert":"ble-framing","fingerprint_detected":false,"framing_detected":true}`,
		"channel-migration":    `{"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false}`,
		"association-flood":    `{"detected":true,"detection_latency_ns":22350000000,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"energy-depletion":     `{"detected":true,"detection_latency_ns":60000000,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"sleep-deprivation":    `{"detected":true,"detection_latency_ns":6360000000,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false}`,
		"replay-impersonation": `{"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false}`,
	},
}

func TestDerivedDetectionMatchesPerThresholdRuns(t *testing.T) {
	type fields struct {
		Detected            bool          `json:"detected"`
		DetectionLatency    time.Duration `json:"detection_latency_ns"`
		FirstAlert          string        `json:"first_alert,omitempty"`
		FingerprintDetected bool          `json:"fingerprint_detected"`
		FramingDetected     bool          `json:"framing_detected"`
	}
	for _, sc := range Catalogue() {
		out := runScenario(t, sc.Name(), Options{Seed: 1})
		for th, golden := range goldenDetectionAt {
			d := out.Score.At(th)
			got, err := json.Marshal(fields{d.Detected(), d.Latency, d.First, d.Fingerprint, d.Framing})
			if err != nil {
				t.Fatal(err)
			}
			if want := golden[sc.Name()]; string(got) != want {
				t.Errorf("%s at %.2f:\n got: %s\nwant: %s", sc.Name(), th, got, want)
			}
		}
	}
}

func TestTrialScoreAt(t *testing.T) {
	const ms = time.Millisecond
	rising := TrialScore{
		EVMRises:  []EVMRise{{At: 0, EVM: 0.10}, {At: 40 * ms, EVM: 0.27}, {At: 90 * ms, EVM: 0.31}, {At: 700 * ms, EVM: 0.52}},
		FramingAt: -1,
	}
	framingOnly := TrialScore{EVMRises: []EVMRise{{At: 0, EVM: 0.12}}, FramingAt: 300 * ms}
	cases := []struct {
		name  string
		score TrialScore
		th    float64
		want  Detection
	}{
		// The rule is strict: an EVM exactly at the threshold does not
		// fire, so the first alert is the next, higher rise.
		{"at threshold does not fire", rising, 0.27, Detection{Fingerprint: true, Latency: 90 * ms, First: "modulation-fingerprint"}},
		{"latency is the first frame above", rising, 0.2, Detection{Fingerprint: true, Latency: 40 * ms, First: "modulation-fingerprint"}},
		{"max exactly at threshold", rising, 0.52, Detection{Latency: -1}},
		{"framing only", framingOnly, 0.27, Detection{Framing: true, Latency: 300 * ms, First: "ble-framing"}},
		{"framing beats a later fingerprint", TrialScore{EVMRises: rising.EVMRises, FramingAt: 50 * ms}, 0.4,
			Detection{Fingerprint: true, Framing: true, Latency: 50 * ms, First: "ble-framing"}},
		{"same frame: fingerprint first", TrialScore{EVMRises: rising.EVMRises, FramingAt: 40 * ms}, 0.2,
			Detection{Fingerprint: true, Framing: true, Latency: 40 * ms, First: "modulation-fingerprint"}},
		{"nothing in the window", TrialScore{FramingAt: -1}, 0.01, Detection{Latency: -1}},
	}
	for _, tc := range cases {
		if got := tc.score.At(tc.th); got != tc.want {
			t.Errorf("%s: At(%g) = %+v, want %+v", tc.name, tc.th, got, tc.want)
		}
	}
	if rising.At(0.27).Detected() != true || framingOnly.At(0.27).class() != ClassFraming {
		t.Error("Detected/class disagree with the derived detectors")
	}
}

// TestMatrixCheckpointResume cancels a checkpointed sweep part-way,
// checks the file is refused under another threshold list, then resumes
// it and requires the uninterrupted run's digest.
func TestMatrixCheckpointResume(t *testing.T) {
	sc, err := ByName("channel-migration")
	if err != nil {
		t.Fatal(err)
	}
	spec := MatrixSpec{
		Scenarios:  []Scenario{sc},
		Thresholds: []float64{0.27, 0.45},
		Trials:     20,
		Seed:       5,
		Workers:    1,
		Obs:        obs.NewRegistry(),
	}
	want, err := RunMatrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	spec.Checkpoint = filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := spec
	interrupted.Scenarios = []Scenario{cancelAfter{Scenario: sc, n: new(atomic.Int32), after: 18, cancel: cancel}}
	if _, err := RunMatrix(ctx, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(spec.Checkpoint); err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}

	other := spec
	other.Thresholds = []float64{0.27, 0.5}
	if _, err := RunMatrix(context.Background(), other); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("checkpoint accepted under another threshold list: %v", err)
	}

	resumed := obs.NewRegistry()
	spec.Obs = resumed
	got, err := RunMatrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counter(runner.ShardsMetric, "spec", "campaign", "state", "restored").Value() == 0 {
		t.Error("resume restored no shards from the checkpoint")
	}
	if got.Digest() != want.Digest() {
		t.Errorf("resumed digest %s, uninterrupted %s", got.Digest(), want.Digest())
	}
}

// cancelAfter wraps a scenario and cancels the sweep's context once it
// has set up `after` instances.
type cancelAfter struct {
	Scenario
	n      *atomic.Int32
	after  int32
	cancel context.CancelFunc
}

func (c cancelAfter) Setup(opts Options) (Instance, error) {
	if c.n.Add(1) == c.after {
		c.cancel()
	}
	return c.Scenario.Setup(opts)
}
