package experiment

import (
	"context"
	"fmt"
	"strconv"

	"wazabee/internal/chip"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

// SweepMetric is the per-operating-point frame classification counter
// family of a PER sweep: labels chip, side, snr_db and class
// (valid | corrupted | not_received).
const SweepMetric = "wazabee_sweep_frames_total"

// SweepPoint is one operating point of a packet-error-rate sweep.
type SweepPoint struct {
	SNRdB float64
	// Frames is the number of frames the point measured
	// (Config.FramesPerChannel, unless adaptive stopping ended the point
	// early).
	Frames int
	// PER is the packet error rate (anything but a valid frame counts
	// as an error).
	PER float64
	// PERLo and PERHi bound PER with a 95% Wilson score interval.
	PERLo float64
	PERHi float64
	// CorruptedRate and LossRate split the errors by class.
	CorruptedRate float64
	LossRate      float64
}

// SweepConfig names the operating points of a PER-versus-SNR sweep, an
// extension beyond the paper's single operating point: it locates the
// sensitivity knee of each primitive and quantifies the
// Gaussian-approximation penalty of the transmission side. The run
// settings come from a Config.
type SweepConfig struct {
	// SNRs lists the operating points in dB.
	SNRs []float64
	// Channel is the Zigbee channel to run on.
	Channel int
}

// DefaultSweepConfig covers the interesting 0–14 dB region.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		SNRs:    []float64{0, 2, 4, 5, 6, 7, 8, 10, 12, 14},
		Channel: zigbee.DefaultChannel,
	}
}

// RunSweep measures PER versus SNR with a background context. See
// RunSweepContext.
func RunSweep(cfg Config, sweep SweepConfig, model chip.Model, side Side) ([]SweepPoint, error) {
	return RunSweepContext(context.Background(), cfg, sweep, model, side)
}

// RunSweepContext measures PER versus SNR for one chip model and side on
// the link Table III measures, over a clean channel: no WiFi, no CFO,
// pure sensitivity. Each (SNR, frame) pair runs on its own freshly
// seeded medium, so a point's PER is a property of the point — it cannot
// shift when the SNR list is reordered, extended, or split across
// workers. The returned points carry 95% Wilson intervals on PER.
//
// cfg supplies the run settings: FramesPerChannel frames per SNR point,
// SamplesPerChip, Workers, Checkpoint, CIHalfWidth, Seed, Obs, Link
// (aggregated under sweep.Channel) and Fidelity. Its link fields SNRdB,
// WiFi, WiFiDutyCycle and WiFiPower are not read: each point sets its
// own SNR and the sweep's channel is clean.
func RunSweepContext(ctx context.Context, cfg Config, sweep SweepConfig, model chip.Model, side Side) ([]SweepPoint, error) {
	if len(sweep.SNRs) == 0 {
		return nil, fmt.Errorf("experiment: empty sweep configuration")
	}
	if _, err := ieee802154.ChannelFrequencyMHz(sweep.Channel); err != nil {
		return nil, err
	}
	points := make([]linkPoint, len(sweep.SNRs))
	for i, snr := range sweep.SNRs {
		// The 'g'/-1 format round-trips float64 exactly, so distinct SNRs
		// always get distinct keys (and distinct trial seed streams).
		points[i] = linkPoint{label: strconv.FormatFloat(snr, 'g', -1, 64), channel: sweep.Channel, snrDB: snr}
	}
	prs, err := runLink(ctx, cfg, sweepStudy, model, side, points)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(prs))
	for i, pr := range prs {
		n := float64(pr.Trials)
		point := SweepPoint{
			SNRdB:         points[i].snrDB,
			Frames:        pr.Trials,
			CorruptedRate: float64(pr.Counts["corrupted"]) / n,
			LossRate:      float64(pr.Counts["not_received"]) / n,
		}
		point.PER = point.CorruptedRate + point.LossRate
		point.PERLo, point.PERHi = runner.Wilson(pr.Counts["corrupted"]+pr.Counts["not_received"], pr.Trials)
		out[i] = point
	}
	return out, nil
}
