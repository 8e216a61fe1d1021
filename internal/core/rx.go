package core

import (
	"fmt"
	"math"
	"time"

	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// Receiver is the WazaBee reception primitive: a BLE radio configured with
// the MSK preamble pattern as its Access Address, CRC checking disabled
// and whitening bypassed, whose demodulated bit stream is despread by
// Hamming distance into 802.15.4 symbols.
type Receiver struct {
	phy *ble.PHY

	// MaxPatternErrors is the tolerated bit-error count in the 32-bit
	// Access Address correlation (hardware typically allows a few).
	MaxPatternErrors int

	// MaxChipDistance is the despreading quality gate: frames whose
	// worst per-symbol Hamming distance exceeds it are dropped as not
	// received, like a correlation-threshold receiver aborting. Zero
	// disables the gate.
	MaxChipDistance int

	// Obs receives the receiver's metrics (frames, sync failures,
	// chip-distance histograms, stage timings); nil falls back to the
	// process default registry.
	Obs *obs.Registry

	// Trace, when non-nil, records a span per pipeline stage
	// (aa-correlate, despread) for each Receive call.
	Trace *obs.Trace
}

// NewReceiver wraps a BLE PHY; like the transmitter it requires the 2
// Mbit/s rate.
func NewReceiver(phy *ble.PHY) (*Receiver, error) {
	if phy == nil {
		return nil, fmt.Errorf("core: nil PHY")
	}
	rate, err := phy.Mode.SymbolRate()
	if err != nil {
		return nil, err
	}
	if rate != ieee802154.ChipRate {
		return nil, fmt.Errorf("core: %v runs at %d sym/s; WazaBee needs the %d chip/s rate (use LE 2M)",
			phy.Mode, rate, ieee802154.ChipRate)
	}
	return &Receiver{phy: phy, MaxPatternErrors: 3, MaxChipDistance: 15}, nil
}

// Receive demodulates a capture with the BLE GFSK receiver, locks onto the
// 802.15.4 preamble via the MSK Access Address, splits the bit stream into
// 31-bit blocks and despreads each block to the nearest PN sequence. Every
// returned "not received" error satisfies errors.Is(err, ErrNoSync), with
// the underlying cause (no preamble, mid-frame abort, quality gate) kept
// in the chain so telemetry and callers can tell them apart.
func (r *Receiver) Receive(sig dsp.IQ) (*ieee802154.Demodulated, error) {
	dem, _, err := r.ReceiveStats(sig)
	return dem, err
}

// ReceiveStats runs the same receiver but additionally returns the
// per-frame link diagnostics. The stats are never nil: every attempt —
// sync failure, mid-frame abort, quality-gate drop or clean decode —
// yields a finalized record with at least the capture RSSI, and the
// record is also fed to the receiver's metrics registry. It is one Push
// and one Flush of a fresh RxStream, so concurrent calls on one Receiver
// are safe.
func (r *Receiver) ReceiveStats(sig dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error) {
	return r.ReceiveStatsAt(time.Time{}, sig)
}

// ReceiveStatsAt is ReceiveStats for an origin-stamped capture: origin
// is the capture's monotonic emission time (zigbee.Capture.Origin), and
// the concluding flush observes the emission→verdict distance into the
// wazabee_latency_seconds{stage="demod"} histogram. It stamps exactly
// the stage set a long-lived RxStream with SetOrigin stamps, so
// whole-capture and chunked deployments report comparable latency
// families. A zero origin degrades to plain ReceiveStats.
func (r *Receiver) ReceiveStatsAt(origin time.Time, sig dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error) {
	s := r.Stream()
	defer s.Close()
	s.SetOrigin(origin)
	s.Push(sig)
	return s.Flush()
}

// RxStream is the streaming form of the WazaBee receiver: the one MSK
// receive chain of ieee802154.RxStream, configured as the diverted BLE
// chip runs it.
type RxStream = ieee802154.RxStream

// Stream builds a fresh streaming receiver sharing this Receiver's
// configuration (PHY, pattern-error budget, chip-distance gate,
// registry and trace, snapshotted at creation).
func (r *Receiver) Stream() *RxStream {
	return ieee802154.NewDivertedRxStream(AccessPattern(), r.MaxPatternErrors, r.phy.SamplesPerSymbol,
		math.Pi*r.phy.ModulationIndex, r.MaxChipDistance, ble.ErrNoAccessAddress, obs.Or(r.Obs), r.Trace)
}

// PHY exposes the underlying BLE modem.
func (r *Receiver) PHY() *ble.PHY {
	return r.phy
}
