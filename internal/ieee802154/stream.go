package ieee802154

import (
	"wazabee/internal/bitstream"
)

// TransitionDespreader is the despreading + frame-assembly stage of the
// MSK receiver (RxStream). It is fed the CFO-corrected hard-decision
// transition stream starting at the synchronisation position (pos 0 =
// the transition effected by chip 1 of a preamble symbol, where the
// correlator locks) and despreads 31-transition blocks by minimum
// Hamming distance over the 16 MSK-encoded PN sequences, skipping the
// boundary transition between blocks — SFD search, PHR, then PSDU bytes.
// Its cursor carries across chunk boundaries, so any feed granularity
// produces the Demodulated of one whole-stream feed.
//
// Feed is resumable: call it again with the (longer) bit stream after
// more data arrives. It returns
//
//   - (nil, false, nil) when more transitions are needed,
//   - (dem, true, nil) once the frame is complete,
//   - (nil, false, ErrNoSync) on a permanent abort: the SFD is not
//     inside the preamble window, or the PHR exceeds MaxPSDULength.
type TransitionDespreader struct {
	// searched is the next preamble offset to test for the SFD.
	searched int
	// sfdAt is the symbol offset of the SFD, or -1 while still searching.
	sfdAt int
	// phr is the decoded frame-length octet, or -1 before it is read.
	phr int
	// nextByte indexes the next PSDU byte to despread.
	nextByte int
	psdu     []byte

	worst, total, count int
	hist                [17]uint32
	failed              error
	done                bool
}

// NewTransitionDespreader returns a despreader ready for a new frame.
func NewTransitionDespreader() *TransitionDespreader {
	d := &TransitionDespreader{}
	d.Reset()
	return d
}

// Name implements the stream.Stage surface.
func (d *TransitionDespreader) Name() string { return "despread" }

// Reset implements the stream.Stage surface: it rewinds the despreader
// for the next frame, keeping the PSDU buffer's capacity.
func (d *TransitionDespreader) Reset() {
	d.searched = 0
	d.sfdAt = -1
	d.phr = -1
	d.nextByte = 0
	d.psdu = d.psdu[:0]
	d.worst, d.total, d.count = 0, 0, 0
	d.hist = [17]uint32{}
	d.failed = nil
	d.done = false
}

// symbolAt despreads the n-th 31-transition block of bits.
func (d *TransitionDespreader) symbolAt(bits bitstream.Bits, n int) (sym, dist int, ok bool) {
	start := n * ChipsPerSymbol
	if start+ChipsPerSymbol-1 > len(bits) {
		return 0, 0, false
	}
	block := bits[start : start+ChipsPerSymbol-1]
	sym, dist = 0, ChipsPerSymbol
	for s := range transitionTable {
		// Both are 31 transitions long, so HammingDistance cannot fail.
		if dd, _ := bitstream.HammingDistance(block, transitionTable[s]); dd < dist {
			sym, dist = s, dd
		}
	}
	return sym, dist, true
}

// record folds one symbol's despreading distance into the quality
// evidence.
func (d *TransitionDespreader) record(dist int) {
	if dist > d.worst {
		d.worst = dist
	}
	d.total += dist
	d.count++
	if dist > 16 {
		dist = 16
	}
	d.hist[dist]++
}

// Feed advances the decode over bits, the full transition stream from
// the lock position gathered so far. See the type comment for the
// return protocol. After a permanent error or a completed frame the
// despreader stays in that state until Reset.
func (d *TransitionDespreader) Feed(bits bitstream.Bits) (*Demodulated, bool, error) {
	if d.failed != nil {
		return nil, false, d.failed
	}
	if d.done {
		return nil, false, nil
	}

	// SFD search inside the window the preamble length allows.
	const maxPreambleSymbols = PreambleLength*SymbolsPerByte + 2
	for d.sfdAt < 0 {
		if d.searched >= maxPreambleSymbols {
			d.failed = ErrNoSync
			return nil, false, d.failed
		}
		s1, _, ok1 := d.symbolAt(bits, d.searched)
		s2, _, ok2 := d.symbolAt(bits, d.searched+1)
		if !ok1 || !ok2 {
			return nil, false, nil // need more transitions
		}
		if s1 == int(SFD&0x0f) && s2 == int(SFD>>4) {
			d.sfdAt = d.searched
			break
		}
		d.searched++
	}

	// PHR: the frame-length octet right after the SFD.
	if d.phr < 0 {
		lo, d1, ok1 := d.symbolAt(bits, d.sfdAt+2)
		hi, d2, ok2 := d.symbolAt(bits, d.sfdAt+3)
		if !ok1 || !ok2 {
			return nil, false, nil
		}
		d.record(d1)
		d.record(d2)
		phr := int(byte(lo) | byte(hi)<<4)
		if phr > MaxPSDULength {
			d.failed = ErrNoSync
			return nil, false, d.failed
		}
		d.phr = phr
	}

	// PSDU bytes, two symbols each.
	for d.nextByte < d.phr {
		n := d.sfdAt + 4 + 2*d.nextByte
		lo, d1, ok1 := d.symbolAt(bits, n)
		hi, d2, ok2 := d.symbolAt(bits, n+1)
		if !ok1 || !ok2 {
			return nil, false, nil
		}
		d.record(d1)
		d.record(d2)
		d.psdu = append(d.psdu, byte(lo)|byte(hi)<<4)
		d.nextByte++
	}

	d.done = true
	return &Demodulated{
		PPDU:              &PPDU{PSDU: append(make([]byte, 0, len(d.psdu)), d.psdu...)},
		WorstChipDistance: d.worst,
		TotalChipDistance: d.total,
		SymbolCount:       d.count,
		ChipDistHist:      d.hist,
		TransitionSpan:    (d.sfdAt + 4 + 2*d.phr) * ChipsPerSymbol,
	}, true, nil
}

// Conclude converts a mid-frame state into the verdict of a truncated
// capture: ErrNoSync when the stream ended before the frame completed,
// or the recorded permanent failure. It returns nil when the frame had
// completed.
func (d *TransitionDespreader) Conclude() error {
	if d.done {
		return nil
	}
	if d.failed != nil {
		return d.failed
	}
	return ErrNoSync
}
