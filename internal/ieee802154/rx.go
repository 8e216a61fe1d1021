package ieee802154

import (
	"fmt"
	"math"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/dsp/stream"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// RxStream is the one MSK receiver of the repository: frequency
// discrimination → per-phase pattern correlation → CFO bias over the
// sync window → hard slicing → TransitionDespreader → link.Measure →
// chip-distance gate → counters. The O-QPSK stick (PHY.DemodulateStats)
// and the diverted BLE chip (core.Receiver) run this same chain and
// differ only in the values of rxConfig — the equivalence the WazaBee
// attack rests on: O-QPSK with half-sine pulses is MSK of the chip
// transitions, so both radios' receivers are the same receiver.
//
// The chain is fed IQ chunks of arbitrary size. All carry-over state —
// the boundary sample of the discriminator, partial symbol windows and
// candidate scans of the correlator, the despreader's cursor — lives
// inside the stages, so any chunking of a capture drives the exact same
// floating-point operations in the exact same order as one Push of the
// whole capture.
//
// Lifecycle: Push every chunk of a capture, then Flush at the capture
// boundary. Flush concludes the attempt — the frame span's SNR is
// measured against the noise floor of the *whole* capture, including
// the tail after the frame, so the final verdict (decoded frame, link
// stats, or the error chain) can only be rendered once the capture
// ends. Push itself returns any frame whose despreading completed
// during that chunk, as soon as the PSDU bytes are final; its Link
// field and SoftEVM are attached later, by the Flush that finalizes the
// attempt.
//
// Push performs no heap allocation in the steady state (after buffer
// warm-up, while no frame is being emitted); Flush allocates its
// result records.
//
// An RxStream is not goroutine-safe: run one per channel.
type RxStream struct {
	cfg   rxConfig
	reg   *obs.Registry
	trace *obs.Trace
	pool  *stream.BufferPool

	disc stream.Discriminator
	corr *stream.Correlator
	desp *TransitionDespreader

	// Retained capture since the last Flush: link.Measure needs the raw
	// samples around the frame span for the RSSI/noise-floor estimate.
	iq       dsp.IQ
	powerSum float64
	incs     []float64 // per-Push discriminator scratch

	// Synchronisation lock. The lock tracks the correlator's current
	// cross-phase winner and is re-acquired whenever a later chunk
	// reveals a better candidate — until a frame completes, which
	// freezes the lock (committed).
	locked    bool
	committed bool
	gated     bool
	lock      stream.Candidate
	bias      float64
	sliced    []byte // CFO-corrected hard decisions from the lock position
	despErr   error
	dem       *Demodulated

	// Stage-duration and stream-throughput series (§7 catalogue). A
	// streaming receiver resolves them up front so Push never touches
	// the registry's variadic lookup path (which allocates a label set
	// per call); a whole-capture receiver keeps no throughput counters
	// and resolves a stage series the first time that stage runs.
	stageSync *obs.Histogram
	stageDesp *obs.Histogram
	pushes    *obs.Counter
	samples   *obs.Counter

	// origin is the emission stamp of the capture currently being
	// accumulated (SetOrigin); zero leaves the demod latency stage
	// unobserved. hDemod is the pre-resolved
	// wazabee_latency_seconds{stage="demod"} series it feeds at Flush.
	origin time.Time
	hDemod *obs.Histogram
}

// rxConfig holds everything that tells one MSK receiver from another:
// the sync pattern and its error budget, samples per symbol, the nominal
// per-symbol phase step, the chip-distance gate (0 disables it), the
// decoder label of every series, the stage name of the sync search, the
// shortest capture that can sync and the link.Measure guard. cause is
// wrapped under ErrNoSync on a sync failure and gives every "not
// received" error its context; nil returns bare ErrNoSync. A
// wholeCapture receiver is fed one Push per capture: it keeps no stream
// counters and times a stage only when the stage ran (the sync search
// on a capture of at least minSamples, the despreader under a lock).
type rxConfig struct {
	pattern            []byte
	maxErrors, sps     int
	nominal            float64
	maxChipDistance    int
	decoder, syncStage string
	minSamples, guard  int
	cause              error
	wholeCapture       bool
}

// NewDivertedRxStream returns the receiver as a diverted BLE chip runs
// it: pattern is the MSK Access Address the chip correlates on with
// maxErrors mismatches, sps its samples per symbol and nominal the
// per-symbol phase step π·h of its GFSK modulation index. Sync failures
// wrap cause (the BLE stack's "access address not found") under
// ErrNoSync, and every series carries decoder="wazabee".
func NewDivertedRxStream(pattern bitstream.Bits, maxErrors, sps int, nominal float64, maxChipDistance int,
	cause error, reg *obs.Registry, tr *obs.Trace) *RxStream {
	s := newRxStream(rxConfig{
		pattern: pattern, maxErrors: maxErrors, sps: sps, nominal: nominal, maxChipDistance: maxChipDistance,
		decoder: "wazabee", syncStage: "aa-correlate", minSamples: (len(pattern) + 2) * sps, guard: 2 * sps,
		cause: cause,
	}, reg, tr)
	s.stageSync = reg.Histogram(obs.StageSecondsMetric, obs.DurationBuckets, "stage", s.cfg.syncStage)
	s.stageDesp = reg.Histogram(obs.StageSecondsMetric, obs.DurationBuckets, "stage", "despread")
	s.pushes = reg.Counter("wazabee_stream_pushes_total", "decoder", s.cfg.decoder)
	s.samples = reg.Counter("wazabee_stream_samples_total", "decoder", s.cfg.decoder)
	s.hDemod = obs.LatencyHistogram(reg, "demod", "decoder", s.cfg.decoder)
	return s
}

// oqpskSyncPattern is the MSK transition pattern of two consecutive zero
// symbols — the stream a receiver sees during the all-zero preamble.
var oqpskSyncPattern = ChipTransitions(append(bitstream.Clone(pnTable[0]), pnTable[0]...))

// stream returns the stick's receiver: the two-symbol preamble pattern
// with MaxSyncErrors, π/2 per chip, a one-chip SNR guard, and a
// 4-symbol minimum capture.
func (p *PHY) stream() *RxStream {
	sps := p.SamplesPerChip
	return newRxStream(rxConfig{
		pattern: oqpskSyncPattern, maxErrors: p.MaxSyncErrors, sps: sps, nominal: math.Pi / 2,
		maxChipDistance: p.MaxChipDistance, decoder: "oqpsk", syncStage: "demod",
		minSamples: 4 * ChipsPerSymbol * sps, guard: sps, wholeCapture: true,
	}, obs.Or(p.Obs), p.Trace)
}

// discBlock is the most samples Push discriminates at once.
const discBlock = 4096

func newRxStream(cfg rxConfig, reg *obs.Registry, tr *obs.Trace) *RxStream {
	pool := stream.Shared()
	return &RxStream{
		cfg:    cfg,
		reg:    reg,
		trace:  tr,
		pool:   pool,
		corr:   stream.NewCorrelator(pool, cfg.pattern, cfg.maxErrors, cfg.sps),
		desp:   NewTransitionDespreader(),
		iq:     pool.IQ(4096),
		incs:   pool.F64(discBlock),
		sliced: pool.Bits(1024),
	}
}

// SetOrigin stamps the capture currently being accumulated with its
// monotonic emission time (zigbee.Capture.Origin). The concluding Flush
// then observes the emission→verdict distance into the
// wazabee_latency_seconds{stage="demod"} histogram — for every
// concluded attempt, decoded or not, so the latency population is not
// survivorship-biased toward clean frames. Call it any time between the
// capture's first Push and its Flush; Flush clears the stamp. A zero
// origin (the default) leaves the stage unobserved.
func (s *RxStream) SetOrigin(origin time.Time) { s.origin = origin }

// Push feeds one IQ chunk through the discriminator and correlator
// stages and advances the despreader. It returns the frames whose
// despreading completed during this chunk (PSDU bytes and chip-quality
// evidence final; Link stats attached by the finalizing Flush), or nil.
func (s *RxStream) Push(chunk dsp.IQ) []*Demodulated {
	if len(chunk) == 0 {
		return nil
	}
	if s.pushes != nil {
		s.pushes.Inc()
		s.samples.Add(uint64(len(chunk)))
	}

	long := len(s.iq)+len(chunk) >= s.cfg.minSamples
	timed := !s.cfg.wholeCapture || long
	span, start := s.beginStage(timed, s.cfg.syncStage)
	s.iq = append(s.iq, chunk...)
	for _, v := range chunk {
		re, im := real(v), imag(v)
		s.powerSum += re*re + im*im
	}
	// Discriminate in blocks so the increment scratch stays bounded
	// whatever the chunk size.
	for rest := chunk; len(rest) > 0; {
		n := min(len(rest), discBlock)
		s.incs = s.disc.Process(rest[:n], s.incs[:0])
		s.corr.Process(s.incs)
		rest = rest[n:]
	}
	s.endStage(timed, span, start, &s.stageSync, s.cfg.syncStage)

	var best stream.Candidate
	synced := false
	if !s.committed {
		best, synced = s.corr.Best()
	}
	timed = !s.cfg.wholeCapture || long && (synced || s.locked)
	span, start = s.beginStage(timed, "despread")
	var out []*Demodulated
	if synced {
		out = s.advance(best)
	}
	s.endStage(timed, span, start, &s.stageDesp, "despread")
	return out
}

// beginStage opens a timed stage (a trace span when tracing) — inline,
// without closures, so the hot path stays allocation-free.
func (s *RxStream) beginStage(timed bool, name string) (*obs.Span, time.Time) {
	if !timed {
		return nil, time.Time{}
	}
	var span *obs.Span
	if s.trace != nil {
		span = s.trace.Start(name)
	}
	return span, time.Now()
}

// endStage closes a stage opened by beginStage and observes its
// duration, resolving the stage series on first use.
func (s *RxStream) endStage(timed bool, span *obs.Span, start time.Time, h **obs.Histogram, name string) {
	if !timed {
		return
	}
	if span != nil {
		span.End()
	}
	if *h == nil {
		*h = s.reg.Histogram(obs.StageSecondsMetric, obs.DurationBuckets, "stage", name)
	}
	(*h).Observe(time.Since(start).Seconds())
}

// advance re-evaluates the synchronisation lock against the
// correlator's current winner, extends the CFO-corrected bit stream and
// feeds the despreader. A completed frame freezes the lock and, if it
// passes the chip-distance gate, is returned for emission.
func (s *RxStream) advance(best stream.Candidate) []*Demodulated {
	if !s.locked || best.Phase != s.lock.Phase || best.Pos != s.lock.Pos {
		s.relock(best)
	} else {
		// Same window; the hard error count never changes for a fixed
		// position, but keep the candidate fresh regardless.
		s.lock = best
	}
	if s.despErr != nil {
		// Permanent despread failure under this lock; only a better
		// candidate (handled above) can restart the decode.
		return nil
	}

	// Extend the sliced bit stream over the newly completed symbol
	// windows: the sums[pos+i]−bias > 0 decision after CFO correction.
	sums := s.corr.Sums(s.lock.Phase)
	for n := s.lock.Pos + len(s.sliced); n < len(sums); n++ {
		if sums[n]-s.bias > 0 {
			s.sliced = append(s.sliced, 1)
		} else {
			s.sliced = append(s.sliced, 0)
		}
	}

	dem, done, err := s.desp.Feed(s.sliced)
	if err != nil {
		s.despErr = err
		return nil
	}
	if !done {
		return nil
	}

	// Frame complete: freeze the lock and apply the quality gate (it
	// depends only on despreading evidence, not on the capture tail).
	s.committed = true
	s.dem = dem
	if s.cfg.maxChipDistance > 0 && dem.WorstChipDistance > s.cfg.maxChipDistance {
		s.gated = true
		return nil
	}
	dem.SyncErrors = s.lock.Errors
	dem.SampleOffset = s.lock.Phase
	dem.CFOBias = s.bias
	dem.SyncCorr = s.syncCorr()
	return []*Demodulated{dem}
}

// syncCorr normalizes the lock's soft correlation to 1.0 for a
// noiseless, perfectly timed pattern.
func (s *RxStream) syncCorr() float64 {
	return s.lock.Score / (float64(len(s.cfg.pattern)) * s.cfg.nominal)
}

// relock acquires (or moves) the synchronisation lock onto a candidate:
// it estimates the CFO bias over the pattern window — the mean residual
// of each per-symbol phase step from its nominal ±value, fully available
// the moment the candidate qualifies — resets the despreader and drops
// the sliced bits so they are re-derived under the new bias.
func (s *RxStream) relock(best stream.Candidate) {
	s.locked = true
	s.lock = best
	s.bias = s.corr.Bias(best, s.cfg.nominal)
	s.sliced = s.sliced[:0]
	s.desp.Reset()
	s.despErr = nil
}

// Flush concludes the receive attempt at a capture boundary and resets
// the stream for the next capture. The returned frame, link stats and
// error are byte-identical to one Push of the concatenation of every
// chunk pushed since the previous Flush — including the error chains
// (errors.Is(err, ErrNoSync) for every "not received" outcome) and
// every metric fed to the registry.
func (s *RxStream) Flush() (*Demodulated, *link.Stats, error) {
	reg, decoder := s.reg, s.cfg.decoder
	var power float64
	if len(s.iq) > 0 {
		power = s.powerSum / float64(len(s.iq))
	}
	st := &link.Stats{RSSIdBFS: 10 * math.Log10(power+1e-12)}
	defer func() {
		st.Finalize()
		link.Observe(reg, st, "decoder", decoder)
		if !s.origin.IsZero() {
			s.hDemod.Observe(obs.DurationSeconds(time.Since(s.origin)))
		}
		s.reset()
	}()

	if len(s.iq) < s.cfg.minSamples || !s.locked {
		reg.Counter("wazabee_sync_failures_total", "decoder", decoder).Inc()
		return nil, st, s.notReceived(ErrNoSync, "ieee802154: access address correlation: %w: %w", ErrNoSync, s.cfg.cause)
	}

	st.Synced = true
	st.SyncErrors = s.lock.Errors
	st.SyncCorr = s.syncCorr()
	st.CFOHz = link.CFOFromBias(s.bias, ChipRate)
	reg.Histogram("wazabee_aa_pattern_errors", obs.LinearBuckets(0, 1, 9), "decoder", decoder).
		Observe(float64(s.lock.Errors))

	if !s.committed {
		// Permanent mid-frame abort, or the capture ended before the
		// frame completed — the truncation reported as ErrNoSync.
		err := s.desp.Conclude()
		if s.despErr != nil {
			err = s.despErr
		}
		reg.Counter("wazabee_despread_failures_total", "decoder", decoder).Inc()
		return nil, st, s.notReceived(err, "ieee802154: despread after sync: %w", err)
	}

	dem := s.dem
	st.WorstChipDistance = dem.WorstChipDistance
	st.ChipErrors = dem.TotalChipDistance
	st.ChipsCompared = dem.SymbolCount * (ChipsPerSymbol - 1)
	st.DistHist = dem.ChipDistHist

	frameStart := s.lock.Phase + s.lock.Pos*s.cfg.sps
	frameEnd := frameStart + dem.TransitionSpan*s.cfg.sps
	if rssi, noise, snr, ok := link.Measure(s.iq, frameStart, frameEnd, s.cfg.guard); ok {
		st.RSSIdBFS, st.NoisedBFS, st.SNRdB, st.SNRValid = rssi, noise, snr, true
	} else {
		st.RSSIdBFS = rssi
	}

	reg.Histogram("wazabee_worst_chip_distance", obs.DistanceBuckets, "decoder", decoder).
		Observe(float64(dem.WorstChipDistance))
	if s.gated {
		st.Gated = true
		reg.Counter("wazabee_quality_gate_drops_total", "decoder", decoder).Inc()
		return nil, st, s.notReceived(ErrNoSync, "ieee802154: worst chip distance %d exceeds gate %d: %w",
			dem.WorstChipDistance, s.cfg.maxChipDistance, ErrNoSync)
	}

	st.Decoded = true
	st.FCSOK = bitstream.CheckFCS(dem.PPDU.PSDU)
	dem.Link = st

	// Modulation fingerprint: RMS deviation of the CFO-compensated
	// per-symbol phase steps from ±nominal over the decoded frame span.
	sums := s.corr.Sums(s.lock.Phase)
	var dev float64
	n := 0
	for i := s.lock.Pos; i < s.lock.Pos+dem.TransitionSpan && i < len(sums); i++ {
		v := sums[i] - s.bias
		d := v - s.cfg.nominal
		if v < 0 {
			d = v + s.cfg.nominal
		}
		dev += d * d
		n++
	}
	if n > 0 {
		dem.SoftEVM = math.Sqrt(dev / float64(n))
	}

	reg.Counter("wazabee_frames_received_total", "decoder", decoder).Inc()
	result := "pass"
	if !st.FCSOK {
		result = "fail"
	}
	reg.Counter("wazabee_crc_checks_total", "decoder", decoder, "result", result).Inc()
	return dem, st, nil
}

// notReceived returns a "not received" verdict: err itself for a
// receiver without a cause, the formatted context otherwise.
func (s *RxStream) notReceived(err error, format string, args ...any) error {
	if s.cfg.cause == nil {
		return err
	}
	return fmt.Errorf(format, args...)
}

// reset rewinds every stage and drops the retained capture, keeping
// buffer capacity so the next capture runs allocation-free.
func (s *RxStream) reset() {
	s.disc.Reset()
	s.corr.Reset()
	s.desp.Reset()
	s.iq = s.iq[:0]
	s.powerSum = 0
	s.locked, s.committed, s.gated = false, false, false
	s.lock = stream.Candidate{}
	s.bias = 0
	s.sliced = s.sliced[:0]
	s.despErr = nil
	s.dem = nil
	s.origin = time.Time{}
}

// Pending reports how many samples the stream has retained since the
// last Flush — the memory bound a continuous caller manages by flushing
// at capture boundaries.
func (s *RxStream) Pending() int { return len(s.iq) }

// Close returns the stream's pooled buffers. The stream must not be
// used afterwards; any un-flushed state is discarded.
func (s *RxStream) Close() {
	s.corr.Close()
	s.pool.PutIQ(s.iq)
	s.pool.PutF64(s.incs)
	s.pool.PutBits(s.sliced)
	s.iq, s.incs, s.sliced = nil, nil, nil
}
