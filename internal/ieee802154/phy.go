package ieee802154

import (
	"errors"
	"fmt"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// ErrNoSync is returned when the demodulator cannot find the preamble
// pattern in a capture — the "not received" class of Table III.
var ErrNoSync = errors.New("ieee802154: no preamble synchronisation")

// PHY is an O-QPSK (half-sine pulse shaping) physical layer instance at 2
// Mchip/s, the 2.4 GHz configuration of IEEE 802.15.4.
type PHY struct {
	// SamplesPerChip is the oversampling factor of the complex baseband
	// simulation (samples per chip period Tc = 0.5 µs).
	SamplesPerChip int

	// MaxSyncErrors is the number of tolerated bit errors when
	// correlating for the preamble (over a two-symbol, 63-transition
	// window). Hardware correlators typically tolerate a few.
	MaxSyncErrors int

	// MaxChipDistance is the despreading quality gate: when any symbol
	// decodes with a larger Hamming distance the receiver abandons the
	// frame (reported as ErrNoSync), the way correlation-threshold
	// receivers abort instead of delivering garbage. Differences in
	// this threshold are what make one chip report corrupted frames
	// where another reports losses in Table III.
	MaxChipDistance int

	// Obs receives the PHY's receive-side metrics (frames, sync and
	// despread failures, FCS pass/fail, chip-distance histogram, stage
	// timings); nil falls back to the process default registry.
	Obs *obs.Registry

	// Trace, when non-nil, records demod/despread spans per capture.
	Trace *obs.Trace

	// pulse caches the half-sine chip pulse at SamplesPerChip so the
	// modulator does not recompute (and reallocate) it per frame.
	pulse []float64
}

// NewPHY returns a PHY with the given oversampling factor.
func NewPHY(samplesPerChip int) (*PHY, error) {
	if samplesPerChip < 2 {
		return nil, fmt.Errorf("ieee802154: samples per chip %d < 2", samplesPerChip)
	}
	pulse, err := dsp.HalfSinePulse(samplesPerChip)
	if err != nil {
		return nil, err
	}
	return &PHY{SamplesPerChip: samplesPerChip, MaxSyncErrors: 6, MaxChipDistance: 15, pulse: pulse}, nil
}

// ModulateChips produces the O-QPSK half-sine complex baseband waveform of
// a chip stream: even-indexed chips shape the in-phase component, odd
// chips the quadrature component delayed by one chip period, each as a
// half-sine pulse spanning two chip periods (Figure 2 of the paper).
func (p *PHY) ModulateChips(chips bitstream.Bits) (dsp.IQ, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("ieee802154: empty chip stream")
	}
	sps := p.SamplesPerChip
	pulse := p.pulse
	if pulse == nil {
		// Zero-value PHY (no NewPHY): compute once and cache.
		var err error
		pulse, err = dsp.HalfSinePulse(sps)
		if err != nil {
			return nil, err
		}
		p.pulse = pulse
	}
	out := make(dsp.IQ, (len(chips)+1)*sps)
	for k, c := range chips {
		amp := float64(2*int(c) - 1)
		base := k * sps
		if k%2 == 0 {
			for j, pv := range pulse {
				out[base+j] += complex(amp*pv, 0)
			}
		} else {
			for j, pv := range pulse {
				out[base+j] += complex(0, amp*pv)
			}
		}
	}
	return out, nil
}

// Modulate spreads and modulates a PPDU into its on-air waveform.
func (p *PHY) Modulate(ppdu *PPDU) (dsp.IQ, error) {
	if ppdu == nil {
		return nil, fmt.Errorf("ieee802154: nil PPDU")
	}
	end := obs.Stage(obs.Or(p.Obs), p.Trace, "modulate")
	defer end()
	return p.ModulateChips(Spread(ppdu.Bytes()))
}

// Demodulated is the result of a successful frame capture.
type Demodulated struct {
	// PPDU is the recovered frame (FCS not yet verified).
	PPDU *PPDU
	// WorstChipDistance is the largest Hamming distance between any
	// received 31-transition block and its decoded PN sequence — a link
	// quality indicator.
	WorstChipDistance int
	// TotalChipDistance and SymbolCount accumulate the distances over
	// the whole frame; their ratio is a hard-decision quality summary.
	TotalChipDistance int
	SymbolCount       int
	// ChipDistHist is the per-symbol Hamming-distance histogram:
	// ChipDistHist[d] counts PHR/PSDU symbols that despread at distance
	// d (clamped at 16) — the soft evidence behind the link LQI.
	ChipDistHist [17]uint32
	// TransitionSpan is the number of transition periods from the sync
	// position to the end of the decoded frame.
	TransitionSpan int
	// SoftEVM is the RMS deviation of the per-chip phase accumulation
	// from the receiver's nominal step (±π/2; ±π·h on a diverted BLE
	// chip) over the decoded frame span, after CFO compensation. A
	// native O-QPSK transmitter approaches zero on a clean channel; a
	// diverted GFSK transmitter keeps a floor from its Gaussian
	// inter-symbol interference — the modulation fingerprint the IDS
	// countermeasure of section VII thresholds. Set by the Flush that
	// concludes the frame, so a frame Push emits carries it only after
	// that Flush.
	SoftEVM float64
	// SyncErrors is the number of mismatched bits in the preamble
	// correlation window.
	SyncErrors int
	// SampleOffset is the recovered symbol timing phase (0 ≤ offset <
	// SamplesPerChip).
	SampleOffset int
	// CFOBias is the estimated carrier-frequency-offset contribution to
	// each per-chip phase accumulation, in radians.
	CFOBias float64
	// SyncCorr is the normalized soft correlation of the sync pattern
	// (nominal 1.0).
	SyncCorr float64
	// Link carries the frame's full link-quality diagnostics (estimated
	// SNR, CFO in Hz, chip error rate, LQI), attached by the concluding
	// RxStream.Flush — the same record Flush returns.
	Link *link.Stats
}

// Demodulate runs the noncoherent MSK-approximation receiver over a
// capture: frequency discrimination, symbol-timing search, preamble
// correlation, CFO compensation and minimum-distance despreading.
//
// The receiver treats the O-QPSK half-sine signal as MSK — the phase
// rotates ±π/2 per chip period — which is exactly the equivalence the
// WazaBee attack exploits; commercial 802.15.4 transceivers use the same
// simplification.
func (p *PHY) Demodulate(sig dsp.IQ) (*Demodulated, error) {
	dem, _, err := p.DemodulateStats(sig)
	return dem, err
}

// DemodulateStats runs the same receiver but additionally returns the
// frame's link-quality diagnostics. The stats are never nil: a capture
// that fails to sync, aborts mid-frame or trips the chip-distance
// quality gate still reports whatever evidence the receiver gathered
// before giving up (whole-capture RSSI at minimum), with LQI already
// finalized and the frame counted into the registry's link series.
//
// It is one Push and one Flush of a fresh RxStream holding pooled
// buffers, so concurrent calls on one PHY are safe.
func (p *PHY) DemodulateStats(sig dsp.IQ) (*Demodulated, *link.Stats, error) {
	s := p.stream()
	defer s.Close()
	s.Push(sig)
	return s.Flush()
}

// transitionTable caches the 31-bit MSK transition encoding of each PN
// sequence, the alphabet of the MSK-view despreader.
var transitionTable = buildTransitionTable()

func buildTransitionTable() [16]bitstream.Bits {
	var out [16]bitstream.Bits
	for s := range pnTable {
		out[s] = ChipTransitions(pnTable[s])
	}
	return out
}

// TransitionAlphabet returns a copy of the 31-bit MSK transition encoding
// of each PN sequence, indexed by symbol.
func TransitionAlphabet() [16]bitstream.Bits {
	var out [16]bitstream.Bits
	for i := range transitionTable {
		out[i] = bitstream.Clone(transitionTable[i])
	}
	return out
}
