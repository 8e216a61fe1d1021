package stream

import (
	"wazabee/internal/dsp"
)

// Correlator is the streaming Access-Address/preamble synchronisation
// stage. It accumulates phase increments, maintains the per-sampling-
// phase symbol sums and hard bit decisions incrementally, and scans
// each phase for the bit pattern with the exact candidate-selection
// semantics of the one-shot receiver (dsp.FindPattern ranking plus
// dsp.SoftScore tie-breaking across phases): per phase the candidate
// with the fewest mismatches wins, earliest position on ties, scanning
// freezes once a zero-error match is found; across phases the
// qualifying candidate with the highest soft correlation wins.
//
// All carry-over state — partial symbol windows at chunk boundaries,
// scan positions, per-phase best candidates — lives inside the stage,
// so feeding a capture in chunks of any size produces bit-identical
// decisions to processing it whole.
type Correlator struct {
	// Pattern is the hard bit pattern to correlate (the 32-bit WazaBee
	// Access Address, or an 802.15.4 preamble window).
	Pattern []byte
	// MaxErrors is the tolerated mismatch count for a candidate to
	// qualify.
	MaxErrors int
	// SPS is the number of samples per symbol; the correlator tracks
	// one candidate search per sampling phase.
	SPS int

	pool   *BufferPool
	incs   []float64
	phases []phaseState
}

// phaseState is the per-sampling-phase carry-over state.
type phaseState struct {
	sums []float64
	bits []byte
	// scan is the next candidate offset (symbol index) to evaluate.
	scan int
	// best candidate so far: qualifying iff has.
	bestPos, bestErrs int
	has               bool
}

// NewCorrelator builds a correlator over pool-backed buffers. pool nil
// falls back to the shared pool.
func NewCorrelator(pool *BufferPool, pattern []byte, maxErrors, sps int) *Correlator {
	pool = Or(pool)
	c := &Correlator{
		Pattern:   pattern,
		MaxErrors: maxErrors,
		SPS:       sps,
		pool:      pool,
		incs:      pool.F64(4096),
		phases:    make([]phaseState, sps),
	}
	for p := range c.phases {
		c.phases[p] = phaseState{
			sums:     pool.F64(512),
			bits:     pool.Bits(512),
			bestErrs: maxErrors + 1,
		}
	}
	return c
}

// Name implements Stage.
func (c *Correlator) Name() string { return "aa-correlate" }

// Reset implements Stage: it drops every retained increment and
// candidate while keeping buffer capacity.
func (c *Correlator) Reset() {
	c.incs = c.incs[:0]
	for p := range c.phases {
		ps := &c.phases[p]
		ps.sums = ps.sums[:0]
		ps.bits = ps.bits[:0]
		ps.scan = 0
		ps.bestPos, ps.bestErrs, ps.has = 0, c.MaxErrors+1, false
	}
}

// Close returns the stage's buffers to the pool. The correlator must
// not be used afterwards.
func (c *Correlator) Close() {
	c.pool.PutF64(c.incs)
	c.incs = nil
	for p := range c.phases {
		c.pool.PutF64(c.phases[p].sums)
		c.pool.PutBits(c.phases[p].bits)
		c.phases[p].sums, c.phases[p].bits = nil, nil
	}
}

// Process appends a chunk of phase increments and advances the
// per-phase symbol integration and pattern scans.
func (c *Correlator) Process(incs []float64) {
	c.incs = append(c.incs, incs...)
	c.extend()
}

// extend grows every phase's symbol sums/bits to cover the retained
// increments and advances its candidate scan.
func (c *Correlator) extend() {
	sps := c.SPS
	for p := range c.phases {
		ps := &c.phases[p]
		// Complete symbol windows available at this phase. The inner
		// summation order matches dsp.IntegrateSymbols exactly so the
		// floating-point results are bit-identical.
		if p < len(c.incs) {
			n := (len(c.incs) - p) / sps
			for k := len(ps.sums); k < n; k++ {
				var sum float64
				base := p + k*sps
				for i := 0; i < sps; i++ {
					sum += c.incs[base+i]
				}
				ps.sums = append(ps.sums, sum)
				if sum > 0 {
					ps.bits = append(ps.bits, 1)
				} else {
					ps.bits = append(ps.bits, 0)
				}
			}
		}
		c.scanPhase(ps)
	}
}

// scanPhase advances the candidate search over newly available windows,
// replicating dsp.FindPattern: ascending offsets, a candidate must
// strictly beat the best so far (initially MaxErrors), and the scan
// freezes after a perfect match.
func (c *Correlator) scanPhase(ps *phaseState) {
	if ps.has && ps.bestErrs == 0 {
		return
	}
	pat := c.Pattern
	for off := ps.scan; off+len(pat) <= len(ps.bits); off++ {
		limit := ps.bestErrs - 1
		errs := 0
		for i, pb := range pat {
			if ps.bits[off+i] != pb {
				errs++
				if errs > limit {
					break
				}
			}
		}
		if errs <= limit {
			ps.bestErrs = errs
			ps.bestPos = off
			ps.has = true
			if errs == 0 {
				ps.scan = off + 1
				return
			}
		}
		ps.scan = off + 1
	}
}

// Candidate is the correlator's current synchronisation decision.
type Candidate struct {
	// Phase is the winning sampling phase, Pos the symbol offset of the
	// pattern within that phase's bit stream.
	Phase, Pos int
	// Errors is the hard mismatch count inside the pattern window,
	// Score the soft correlation of the window.
	Errors int
	Score  float64
}

// Best returns the current cross-phase winner, ranked by soft
// correlation with ties resolving to the lowest phase — the same
// decision the one-shot receiver makes over the data seen so far.
func (c *Correlator) Best() (Candidate, bool) {
	var best Candidate
	found := false
	for p := range c.phases {
		ps := &c.phases[p]
		if !ps.has {
			continue
		}
		score, ok := dsp.SoftScore(ps.sums, c.Pattern, ps.bestPos)
		if !ok {
			continue
		}
		if !found || score > best.Score {
			best = Candidate{Phase: p, Pos: ps.bestPos, Errors: ps.bestErrs, Score: score}
			found = true
		}
	}
	return best, found
}

// Sums exposes a phase's symbol sums (read-only; valid until the next
// Process or Reset).
func (c *Correlator) Sums(phase int) []float64 { return c.phases[phase].sums }

// Len returns the number of retained increments.
func (c *Correlator) Len() int { return len(c.incs) }
