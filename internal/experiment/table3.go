// Package experiment regenerates the paper's evaluation: the Table III
// assessment of the WazaBee reception and transmission primitives (100
// counter-tagged frames per Zigbee channel, classified as valid, received
// with integrity corruption, or not received) under the paper's
// experimental conditions — including the WiFi networks on channels 6 and
// 11 that degrade Zigbee channels 17–18 and 21–23.
//
// All experiments run on the trial-sharded Monte-Carlo engine of
// internal/experiment/runner: every frame's randomness derives from
// (seed, point, frame index) alone, so results are bit-identical at any
// worker count, in any point order, and across checkpoint/resume
// boundaries, and every rate estimate carries a 95% Wilson interval.
package experiment

import (
	"context"
	"fmt"
	"strconv"

	"wazabee/internal/chip"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	oblink "wazabee/internal/obs/link"
	"wazabee/internal/radio"
)

// FramesMetric is the per-channel frame classification counter family
// of a Table III run: labels chip, side, channel and class
// (valid | corrupted | not_received).
const FramesMetric = "wazabee_experiment_frames_total"

// Side selects which WazaBee primitive the run assesses.
type Side int

const (
	// Reception: a legitimate 802.15.4 radio transmits, the diverted
	// BLE chip receives.
	Reception Side = iota + 1
	// Transmission: the diverted BLE chip transmits, a legitimate
	// 802.15.4 radio (the RZUSBStick) receives.
	Transmission
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Reception:
		return "reception"
	case Transmission:
		return "transmission"
	default:
		return fmt.Sprintf("side(%d)", int(s))
	}
}

// Config parameterises a run over the WazaBee link: Table III, and the
// run settings of a PER sweep (see RunSweepContext for the fields the
// sweep does not read).
type Config struct {
	// FramesPerChannel is the frame budget of each operating point: of
	// each Zigbee channel in Table III (100 in the paper), of each SNR in
	// a sweep.
	FramesPerChannel int
	// SamplesPerChip is the baseband oversampling factor.
	SamplesPerChip int
	// Workers bounds the Monte-Carlo worker pool; <= 0 means
	// runtime.GOMAXPROCS. Results do not depend on the value.
	Workers int
	// Checkpoint, when non-empty, persists completed trial shards to this
	// path: a cancelled run can resume from it and finish bit-identically
	// to an uninterrupted one.
	Checkpoint string
	// CIHalfWidth, when > 0, stops each operating point adaptively once
	// the 95% Wilson half-width of its valid rate reaches this target,
	// instead of always spending FramesPerChannel frames.
	CIHalfWidth float64
	// Obs, when non-nil, receives the run's telemetry: the per-point
	// classification counters plus everything the instrumented pipeline
	// underneath (core, radio, ieee802154) reports. Each run accumulates
	// into a private registry and merges it in at the end, so a shared
	// registry never sees a half-finished run. Nil merges into the
	// process default registry.
	Obs *obs.Registry
	// Link, when non-nil, accumulates each frame's link diagnostics
	// (SNR, CFO, chip errors, LQI) by channel, so a Table III run also
	// yields the per-channel quality picture behind its tallies.
	Link *oblink.Aggregator
	// Seed makes the run reproducible.
	Seed int64
	// SNRdB is the link budget of the 3 m lab path before the
	// receiver's noise figure is subtracted.
	SNRdB float64
	// WiFi enables the interfering networks on WiFi channels 6 and 11.
	WiFi bool
	// WiFiDutyCycle and WiFiPower shape the interference (fraction of
	// airtime, power relative to the received signal).
	WiFiDutyCycle float64
	WiFiPower     float64
	// Fidelity selects the frame-delivery tier (see radio.Fidelity):
	// FidelityIQ (the default) replays the full DSP chain, FidelitySymbol
	// draws calibrated per-symbol chip errors through the real
	// despreader, FidelityFrame reduces each frame to one erasure draw.
	// Link aggregation (Config.Link) only populates on the IQ tier.
	Fidelity radio.Fidelity
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		FramesPerChannel: 100,
		SamplesPerChip:   8,
		Seed:             1,
		SNRdB:            10,
		WiFi:             true,
		WiFiDutyCycle:    0.005,
		WiFiPower:        6.0,
	}
}

// ChannelResult is one row of Table III for one chip and side.
type ChannelResult struct {
	Channel     int
	Valid       int
	Corrupted   int
	NotReceived int
}

// Frames is the number of frames the row tallies (FramesPerChannel,
// unless adaptive stopping ended the channel early).
func (c ChannelResult) Frames() int {
	return c.Valid + c.Corrupted + c.NotReceived
}

// ValidInterval returns the 95% Wilson score interval of the row's
// valid-frame rate.
func (c ChannelResult) ValidInterval() (lo, hi float64) {
	return runner.Wilson(c.Valid, c.Frames())
}

// Result is a full 16-channel column of Table III.
type Result struct {
	Chip   string
	Side   Side
	Frames int
	Rows   []ChannelResult
}

// Totals sums the classification counts over all channels.
func (r *Result) Totals() (valid, corrupted, notReceived int) {
	for _, row := range r.Rows {
		valid += row.Valid
		corrupted += row.Corrupted
		notReceived += row.NotReceived
	}
	return valid, corrupted, notReceived
}

// ValidRate returns the fraction of frames received without corruption,
// the headline averages of section V (98.6–99.4 %).
func (r *Result) ValidRate() float64 {
	valid, corrupted, notReceived := r.Totals()
	total := valid + corrupted + notReceived
	if total == 0 {
		return 0
	}
	return float64(valid) / float64(total)
}

// ValidRateInterval returns the 95% Wilson score interval of the overall
// valid rate.
func (r *Result) ValidRateInterval() (lo, hi float64) {
	valid, corrupted, notReceived := r.Totals()
	return runner.Wilson(valid, valid+corrupted+notReceived)
}

// Row returns the result row for a channel, and false when absent.
func (r *Result) Row(channel int) (ChannelResult, bool) {
	for _, row := range r.Rows {
		if row.Channel == channel {
			return row, true
		}
	}
	return ChannelResult{}, false
}

// Run executes the Table III experiment for one chip model and side with
// a background context. See RunContext.
func Run(cfg Config, model chip.Model, side Side) (*Result, error) {
	return RunContext(context.Background(), cfg, model, side)
}

// RunContext executes the Table III experiment for one chip model and
// side: cfg.FramesPerChannel frames on each of the 16 Zigbee channels,
// each frame's randomness derived from (Seed, channel, frame) so the rows
// are reproducible regardless of parallelism and scheduling. Cancelling
// ctx stops the run; with cfg.Checkpoint set, the completed shards
// survive for resume.
func RunContext(ctx context.Context, cfg Config, model chip.Model, side Side) (*Result, error) {
	channels := ieee802154.Channels()
	points := make([]linkPoint, len(channels))
	for i, channel := range channels {
		points[i] = linkPoint{label: strconv.Itoa(channel), channel: channel, snrDB: cfg.SNRdB}
	}
	prs, err := runLink(ctx, cfg, table3Study, model, side, points)
	if err != nil {
		return nil, err
	}
	result := &Result{
		Chip:   model.Name,
		Side:   side,
		Frames: cfg.FramesPerChannel,
		Rows:   make([]ChannelResult, len(prs)),
	}
	for i, pr := range prs {
		result.Rows[i] = ChannelResult{
			Channel:     points[i].channel,
			Valid:       pr.Counts["valid"],
			Corrupted:   pr.Counts["corrupted"],
			NotReceived: pr.Counts["not_received"],
		}
	}
	return result, nil
}
