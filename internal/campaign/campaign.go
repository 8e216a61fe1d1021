// Package campaign is the attack/defense campaign engine: a catalogue
// of attack scenarios executed against internal/zigbee/sim meshes, each
// scored into a structured Outcome (detection latency, frames injected
// and accepted, energy drained, nodes disrupted), and a Monte-Carlo
// driver that runs every scenario's trials once on
// internal/experiment/runner and derives an attack-vs-detection ROC
// matrix with Wilson confidence intervals at every IDS threshold from
// those same trials.
//
// The paper's scenarios A (frame injection) and B (channel-migration
// denial of service) are two points of the catalogue; the
// energy-depletion family (forced retransmission, sleep deprivation)
// follows Ghost-in-the-Wireless (arXiv:1410.1613), association flooding
// and replay/impersonation round out the population, and a
// benign-traffic baseline measures the false-positive cost of every
// detector threshold.
//
// Determinism: a scenario instance is a pure function of its Options —
// the mesh follows the simulator's SplitMix64 seed discipline, the
// attack schedule runs on the same event loop, and the frame-tier
// fingerprint draws are keyed on the (deterministic) global capture
// sequence. Same options, same Outcome, byte for byte; the matrix
// inherits the runner's bit-identical-at-any-worker-count contract.
package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wazabee/internal/ids"
	"wazabee/internal/radio"
)

// Default experimental parameters shared by every scenario.
const (
	// DefaultDevices is the end-device count of the standard star mesh.
	DefaultDevices = 4
	// DefaultDuration is how much virtual time one scenario run covers.
	DefaultDuration = 30 * time.Second
	// DefaultSNRdB matches the simulator's default link budget.
	DefaultSNRdB = 25
	// DefaultAttackStart leaves the mesh time to form before the
	// attacker keys up (association flooding starts earlier — its whole
	// point is to hit the join window).
	DefaultAttackStart = 10 * time.Second
)

// Options parameterises one scenario instance. The zero value of every
// field selects the catalogue default.
type Options struct {
	// Seed drives the mesh, the attack schedule and the fingerprint
	// draws.
	Seed int64
	// Fidelity is the mesh delivery tier (symbol or frame; zero selects
	// frame, the cheap tier campaigns sweep on).
	Fidelity radio.Fidelity
	// SNRdB is the victim link budget; zero selects DefaultSNRdB.
	SNRdB float64
	// Duration is the virtual time simulated; zero selects the
	// scenario's default.
	Duration time.Duration
	// Devices is the number of end devices in the star mesh; zero
	// selects DefaultDevices.
	Devices int
	// Chip selects the energy accountant's current-draw profile
	// ("cc2652", "nrf52840"; empty selects cc2652).
	Chip string
}

func (o *Options) fill() {
	if o.Fidelity == 0 {
		o.Fidelity = radio.FidelityFrame
	}
	if o.SNRdB == 0 {
		o.SNRdB = DefaultSNRdB
	}
	if o.Duration <= 0 {
		o.Duration = DefaultDuration
	}
	if o.Devices <= 0 {
		o.Devices = DefaultDevices
	}
}

// Outcome is one scenario run's score card. Every field is a
// deterministic function of the instance's Options, so byte-comparing
// two marshalled Outcomes is a valid same-seed identity check.
type Outcome struct {
	// Scenario and Seed identify the run.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	// Detected reports whether any detector fired during the attack
	// window (for the benign baseline: at all — every benign alert is a
	// false positive). It and the other detection fields below report
	// the IDS at ids.DefaultFingerprintThreshold; Score derives them at
	// any other threshold.
	Detected bool `json:"detected"`
	// DetectionLatency is the virtual time from attack start to the
	// first in-window alert; -1 when undetected.
	DetectionLatency time.Duration `json:"detection_latency_ns"`
	// FirstAlert is the alert kind that fired first, "" when undetected.
	FirstAlert string `json:"first_alert,omitempty"`
	// FingerprintDetected and FramingDetected report which detectors
	// fired inside the attack window — the per-detector ROC columns.
	FingerprintDetected bool `json:"fingerprint_detected"`
	FramingDetected     bool `json:"framing_detected"`
	// AlertFrames counts monitored frames that raised at least one
	// alert (in or out of the attack window).
	AlertFrames int `json:"alert_frames"`
	// Alerts tallies every alert by kind over the whole run.
	Alerts map[string]int `json:"alerts,omitempty"`

	// FramesInjected counts attacker frames put on the air;
	// FramesAccepted those that survived collision, deafness and
	// erasure and were processed by a victim MAC.
	FramesInjected uint64 `json:"frames_injected"`
	FramesAccepted uint64 `json:"frames_accepted"`

	// NodesDisrupted counts nodes not joined to the PAN at scenario
	// end — devices the attack detached or kept from associating.
	NodesDisrupted int `json:"nodes_disrupted"`
	// ChannelMigrations counts nodes detached by a forged remote AT
	// retune (the scenario B signature).
	ChannelMigrations uint64 `json:"channel_migrations"`
	// Readings counts sensor readings the coordinator accepted —
	// goodput, including any spoofed readings the attack slipped in.
	Readings uint64 `json:"readings"`

	// EnergyMicrojoules is the victims' total radio energy over the run
	// (the PR 8 ledger). EnergyDrained is the victims' active-radio
	// (non-idle) energy surplus against a same-seed attack-free twin —
	// the budget a duty-cycled device would have slept through. The
	// always-on listening baseline is excluded: in this MAC idle and RX
	// draw the same current, so flooding cannot raise it (turnaround
	// even draws less), and a total-energy difference would score a
	// depletion flood as a net saving. Computed only for the
	// energy-depletion scenario family (0 elsewhere).
	EnergyMicrojoules        float64 `json:"energy_microjoules"`
	EnergyDrainedMicrojoules float64 `json:"energy_drained_microjoules"`

	// Score is the run's threshold-free detection record.
	Score TrialScore `json:"score"`
}

// TrialScore is one run's detection record before any threshold is
// applied: enough to say, for every IDS threshold, which detectors
// fired inside the attack window and when. Times are measured from the
// window start (attack start; run start for the benign baseline).
type TrialScore struct {
	// EVMRises traces the running maximum of the in-window soft-EVM
	// statistic: one entry per frame that raised it, in time order, so
	// the last entry holds the in-window maximum.
	EVMRises []EVMRise `json:"evm_rises,omitempty"`
	// FramingAt is when BLE framing was first spotted inside the
	// window; -1 when never.
	FramingAt time.Duration `json:"framing_at_ns"`
}

// EVMRise is one frame that raised the in-window soft-EVM maximum.
type EVMRise struct {
	At  time.Duration `json:"at_ns"`
	EVM float64       `json:"evm"`
}

// Detection is what the IDS reports for one run at one threshold.
type Detection struct {
	// Fingerprint and Framing report which detectors fired in the window.
	Fingerprint, Framing bool
	// Latency runs from the window start to the first in-window alert;
	// -1 when undetected.
	Latency time.Duration
	// First is the kind of that first alert; "" when undetected.
	First string
}

// At derives the detection record at threshold. The first rise above
// the threshold is the first in-window frame the fingerprint detector
// flags; when it and the first framing sighting are the same frame, the
// fingerprint alert comes first, as in the monitor's alert order.
func (s *TrialScore) At(threshold float64) Detection {
	d := Detection{Framing: s.FramingAt >= 0, Latency: -1}
	for _, r := range s.EVMRises {
		if ids.FingerprintFires(r.EVM, threshold) {
			d.Fingerprint = true
			d.Latency, d.First = r.At, ids.AlertModulationFingerprint.String()
			break
		}
	}
	if d.Framing && (d.Latency < 0 || s.FramingAt < d.Latency) {
		d.Latency, d.First = s.FramingAt, ids.AlertBLEFraming.String()
	}
	return d
}

// Detected reports whether any detector fired.
func (d Detection) Detected() bool { return d.Fingerprint || d.Framing }

// Scenario is one catalogue entry: a named, repeatable attack (or the
// benign baseline) that can be instantiated onto a fresh mesh at a
// seed, run to completion, and scored.
type Scenario interface {
	// Name is the stable catalogue identifier ("scenario-a-injection").
	Name() string
	// Description is the one-line human summary.
	Description() string
	// Attack reports whether the scenario injects traffic; false only
	// for the benign baseline.
	Attack() bool
	// Setup instantiates the scenario: a fresh mesh, the monitor, and
	// the attack schedule, all derived from opts.
	Setup(opts Options) (Instance, error)
}

// Instance is one prepared scenario run.
type Instance interface {
	// Run drives the mesh (and the attack) through the configured
	// virtual duration.
	Run() error
	// Score folds the run into its Outcome. Call after Run.
	Score() Outcome
}

// Catalogue returns the scenario catalogue in stable order: the benign
// baseline first, then the attacks.
func Catalogue() []Scenario {
	out := make([]Scenario, len(catalogue))
	for i := range catalogue {
		out[i] = &catalogue[i]
	}
	return out
}

// ByName resolves a catalogue scenario.
func ByName(name string) (Scenario, error) {
	for i := range catalogue {
		if catalogue[i].name == name {
			return &catalogue[i], nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the catalogue scenario names in stable order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i := range catalogue {
		names[i] = catalogue[i].name
	}
	return names
}

// ParseScenarios resolves a CLI-style selection: "all" (or empty) for
// the whole catalogue, otherwise a comma-separated name list. The
// result preserves catalogue order and drops duplicates.
func ParseScenarios(sel string) ([]Scenario, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" || sel == "all" {
		return Catalogue(), nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := ByName(name); err != nil {
			return nil, err
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("campaign: empty scenario selection %q", sel)
	}
	var out []Scenario
	for i := range catalogue {
		if want[catalogue[i].name] {
			out = append(out, &catalogue[i])
		}
	}
	return out, nil
}

// sortedAlertKinds returns the outcome's alert kinds in stable order
// (for text rendering; JSON maps already marshal sorted).
func sortedAlertKinds(alerts map[string]int) []string {
	kinds := make([]string, 0, len(alerts))
	for k := range alerts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
