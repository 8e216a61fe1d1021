package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// goldenCapture is a small decodable capture: an FCS-sealed empty-payload
// PSDU modulated with the legitimate O-QPSK PHY and padded with silence,
// sized so the every-offset split test stays fast.
func goldenCapture(t *testing.T) dsp.IQ {
	t.Helper()
	sig := oqpskFrame(t, testPSDU(t, nil))
	padded, err := sig.Pad(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

func newStreamReceiver(t *testing.T) (*Receiver, *obs.Registry) {
	t.Helper()
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rx.Obs = reg
	return rx, reg
}

// streamReceive drives a fresh RxStream with the capture cut at the given
// split offsets (ascending, exclusive of 0 and len) and flushes.
func streamReceive(rx *Receiver, sig dsp.IQ, splits ...int) (*ieee802154.Demodulated, *link.Stats, error) {
	s := rx.Stream()
	defer s.Close()
	prev := 0
	for _, cut := range splits {
		s.Push(sig[prev:cut])
		prev = cut
	}
	s.Push(sig[prev:])
	return s.Flush()
}

// identityCounters are the one-shot path's observable side effects the
// streaming path must reproduce exactly.
var identityCounters = [][]string{
	{"wazabee_frames_received_total", "decoder", "wazabee"},
	{"wazabee_sync_failures_total", "decoder", "wazabee"},
	{"wazabee_despread_failures_total", "decoder", "wazabee"},
	{"wazabee_quality_gate_drops_total", "decoder", "wazabee"},
	{"wazabee_crc_checks_total", "decoder", "wazabee", "result", "pass"},
	{"wazabee_crc_checks_total", "decoder", "wazabee", "result", "fail"},
	{link.MetricFrames, "result", "decoded", "decoder", "wazabee"},
	{link.MetricFrames, "result", "no_sync", "decoder", "wazabee"},
	{link.MetricFrames, "result", "gated", "decoder", "wazabee"},
}

// assertIdentical fails unless the streaming outcome (dem/stats/error and
// every identity counter) is byte-identical to the one-shot reference.
func assertIdentical(t *testing.T, label string,
	wantDem *ieee802154.Demodulated, wantSt *link.Stats, wantErr error, wantReg *obs.Registry,
	gotDem *ieee802154.Demodulated, gotSt *link.Stats, gotErr error, gotReg *obs.Registry) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, one-shot %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, one-shot %q", label, gotErr, wantErr)
		}
		if errors.Is(wantErr, ieee802154.ErrNoSync) != errors.Is(gotErr, ieee802154.ErrNoSync) {
			t.Fatalf("%s: ErrNoSync chain mismatch", label)
		}
	}
	if (wantDem == nil) != (gotDem == nil) {
		t.Fatalf("%s: dem nil-ness mismatch", label)
	}
	if wantDem != nil {
		if !bytes.Equal(gotDem.PPDU.PSDU, wantDem.PPDU.PSDU) {
			t.Fatalf("%s: PSDU % x, one-shot % x", label, gotDem.PPDU.PSDU, wantDem.PPDU.PSDU)
		}
		if gotDem.SyncErrors != wantDem.SyncErrors || gotDem.SampleOffset != wantDem.SampleOffset ||
			gotDem.CFOBias != wantDem.CFOBias || gotDem.SyncCorr != wantDem.SyncCorr ||
			gotDem.WorstChipDistance != wantDem.WorstChipDistance ||
			gotDem.TotalChipDistance != wantDem.TotalChipDistance ||
			gotDem.ChipDistHist != wantDem.ChipDistHist ||
			gotDem.TransitionSpan != wantDem.TransitionSpan {
			t.Fatalf("%s: dem evidence differs:\n got %+v\nwant %+v", label, gotDem, wantDem)
		}
		if gotDem.Link != gotSt {
			t.Fatalf("%s: Demodulated.Link does not carry the stats record", label)
		}
	}
	if gotSt == nil || wantSt == nil {
		t.Fatalf("%s: nil stats (got %v, want %v)", label, gotSt, wantSt)
	}
	if *gotSt != *wantSt {
		t.Fatalf("%s: stats differ:\n got %+v\nwant %+v", label, *gotSt, *wantSt)
	}
	for _, series := range identityCounters {
		want := wantReg.Counter(series[0], series[1:]...).Value()
		if got := gotReg.Counter(series[0], series[1:]...).Value(); got != want {
			t.Fatalf("%s: counter %v = %d, one-shot %d", label, series, got, want)
		}
	}
}

// TestStreamEveryOffsetIdentity is the chunk-boundary acceptance test:
// the golden capture is split into two Pushes at every sample offset —
// mid-preamble, mid-symbol, mid-FCS — and each streaming decode must be
// byte-identical to the whole-capture ReceiveStats, including stats,
// error chains and metric side effects.
func TestStreamEveryOffsetIdentity(t *testing.T) {
	sig := goldenCapture(t)
	oneShot, refReg := newStreamReceiver(t)
	wantDem, wantSt, wantErr := oneShot.ReceiveStats(sig)
	if wantErr != nil {
		t.Fatalf("golden capture does not decode one-shot: %v", wantErr)
	}

	for cut := 1; cut < len(sig); cut++ {
		rx, reg := newStreamReceiver(t)
		dem, st, err := streamReceive(rx, sig, cut)
		assertIdentical(t, "", wantDem, wantSt, wantErr, refReg, dem, st, err, reg)
		if t.Failed() {
			t.Fatalf("split offset %d of %d diverged", cut, len(sig))
		}
	}
}

// TestStreamChunkSizeWalk feeds the capture in uniform chunks of every
// size from 1 to 33 samples (and a few larger ones) — every alignment of
// chunk boundaries relative to symbol windows — asserting identity.
func TestStreamChunkSizeWalk(t *testing.T) {
	sig := goldenCapture(t)
	oneShot, refReg := newStreamReceiver(t)
	wantDem, wantSt, wantErr := oneShot.ReceiveStats(sig)
	if wantErr != nil {
		t.Fatal(wantErr)
	}

	sizes := make([]int, 0, 36)
	for n := 1; n <= 33; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 255, 1000, len(sig))
	for _, n := range sizes {
		var splits []int
		for cut := n; cut < len(sig); cut += n {
			splits = append(splits, cut)
		}
		rx, reg := newStreamReceiver(t)
		dem, st, err := streamReceive(rx, sig, splits...)
		assertIdentical(t, "", wantDem, wantSt, wantErr, refReg, dem, st, err, reg)
		if t.Failed() {
			t.Fatalf("chunk size %d diverged", n)
		}
	}
}

// TestStreamErrorPathIdentity covers the "not received" verdicts: each
// must reproduce the one-shot error chain, stats record and counters.
func TestStreamErrorPathIdentity(t *testing.T) {
	noise, err := dsp.NoiseFloor(8000, 0.01, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenCapture(t)

	cases := []struct {
		name string
		sig  dsp.IQ
	}{
		// Noise only: the ErrNoSync + ErrNoAccessAddress chain.
		{"no_sync_noise", noise},
		// Shorter than the (pattern+2)·sps one-shot minimum: must refuse
		// identically even though streaming has no such intrinsic bound.
		{"too_short", golden[:200]},
		// Truncated mid-frame: sync succeeds, despreading runs out of
		// bits — the "despread after sync" truncation verdict.
		{"truncated", golden[:len(golden)-2000]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oneShot, refReg := newStreamReceiver(t)
			wantDem, wantSt, wantErr := oneShot.ReceiveStats(tc.sig)
			if wantErr == nil {
				t.Fatalf("reference decode unexpectedly succeeded (len=%d)", len(tc.sig))
			}
			for _, n := range []int{1, 17, 333, len(tc.sig)} {
				var splits []int
				for cut := n; cut < len(tc.sig); cut += n {
					splits = append(splits, cut)
				}
				rx, reg := newStreamReceiver(t)
				dem, st, serr := streamReceive(rx, tc.sig, splits...)
				assertIdentical(t, tc.name, wantDem, wantSt, wantErr, refReg, dem, st, serr, reg)
			}
		})
	}
}

// TestStreamQualityGateIdentity: a frame the one-shot receiver drops at
// the chip-distance gate must be dropped identically by the stream.
func TestStreamQualityGateIdentity(t *testing.T) {
	clean := oqpskFrame(t, testPSDU(t, []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x07}))
	for seed := int64(1); seed <= 30; seed++ {
		sig := clean.Clone()
		if err := dsp.AddAWGN(sig, 6, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		padded, err := sig.Pad(200, 200)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, refReg := newStreamReceiver(t)
		oneShot.MaxChipDistance = 1
		wantDem, wantSt, wantErr := oneShot.ReceiveStats(padded)
		if wantErr == nil || !wantSt.Gated {
			continue // this seed decoded cleanly or lost sync; try the next
		}
		for _, n := range []int{97, 1024} {
			var splits []int
			for cut := n; cut < len(padded); cut += n {
				splits = append(splits, cut)
			}
			rx, reg := newStreamReceiver(t)
			rx.MaxChipDistance = 1
			dem, st, serr := streamReceive(rx, padded, splits...)
			assertIdentical(t, "gated", wantDem, wantSt, wantErr, refReg, dem, st, serr, reg)
		}
		return
	}
	t.Fatal("no seed in 1..30 tripped the quality gate at 6 dB SNR with gate 1")
}

// TestStreamPushEmitsFrame: Push must hand the frame out the moment its
// despreading completes — before the capture ends — and the finalizing
// Flush must attach the Link stats to that same frame object.
func TestStreamPushEmitsFrame(t *testing.T) {
	sig := goldenCapture(t)
	rx, _ := newStreamReceiver(t)
	s := rx.Stream()
	defer s.Close()

	var emitted *ieee802154.Demodulated
	var emittedAt int
	const chunk = 64
	for start := 0; start < len(sig); start += chunk {
		end := start + chunk
		if end > len(sig) {
			end = len(sig)
		}
		for _, dem := range s.Push(sig[start:end]) {
			if emitted != nil {
				t.Fatal("frame emitted twice")
			}
			emitted, emittedAt = dem, end
		}
	}
	if emitted == nil {
		t.Fatal("no frame emitted by Push")
	}
	if emittedAt >= len(sig) {
		t.Error("frame only emitted by the final chunk; expected early emission before the capture tail")
	}
	if emitted.Link != nil {
		t.Error("Link stats attached before Flush (noise floor needs the capture tail)")
	}
	dem, st, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if dem != emitted {
		t.Error("Flush returned a different frame object than Push emitted")
	}
	if emitted.Link != st {
		t.Error("Flush did not attach the stats record to the emitted frame")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Flush, want 0", s.Pending())
	}
}

// TestStreamSteadyStateAllocs is the zero-allocation acceptance test:
// once buffers are warm, Push must not allocate at all.
func TestStreamSteadyStateAllocs(t *testing.T) {
	rx, _ := newStreamReceiver(t)
	rx.MaxPatternErrors = 0 // keep random noise from ever syncing
	noise, err := dsp.NoiseFloor(256, 0.01, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	s := rx.Stream()
	defer s.Close()
	const runs = 120
	// Warm-up: push more than the measured volume so every internal slab
	// reaches its steady-state capacity, then Flush (which keeps
	// capacity) to rewind.
	for i := 0; i < runs+10; i++ {
		s.Push(noise)
	}
	s.Flush()

	allocs := testing.AllocsPerRun(runs-1, func() {
		s.Push(noise)
	})
	if allocs != 0 {
		t.Errorf("steady-state Push allocates %v per call, want 0", allocs)
	}
	if _, st, err := s.Flush(); err == nil || st == nil {
		t.Error("noise-only flush should report no_sync with stats")
	}
}

// TestStreamConcurrentChannels runs one stream per goroutine plus
// concurrent ReceiveStats calls on a shared Receiver — the multi-channel
// fan-out of the Table III harness. Run under -race by make ci.
func TestStreamConcurrentChannels(t *testing.T) {
	sig := goldenCapture(t)
	rx, _ := newStreamReceiver(t)
	want, _, err := rx.ReceiveStats(sig)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Dedicated per-channel stream.
				s := rx.Stream()
				defer s.Close()
				chunk := 37 + g*13
				for start := 0; start < len(sig); start += chunk {
					end := start + chunk
					if end > len(sig) {
						end = len(sig)
					}
					s.Push(sig[start:end])
				}
				dem, _, err := s.Flush()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(dem.PPDU.PSDU, want.PPDU.PSDU) {
					t.Errorf("goroutine %d: PSDU mismatch", g)
				}
			} else {
				// Whole-capture calls share the Receiver.
				dem, _, err := rx.ReceiveStats(sig)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(dem.PPDU.PSDU, want.PPDU.PSDU) {
					t.Errorf("goroutine %d: PSDU mismatch", g)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedReceiversConcurrent hammers the stick and the BLE
// access-address search the way experiment workers and calib share
// them: concurrent PHY.DemodulateStats and ble.DemodulateFrame calls on
// one ieee802154.PHY and one ble.PHY, alongside WazaBee receptions, all
// into one registry. Every call must give the sequential verdict and
// the registry must count every call. Run under -race by make
// racestream.
func TestSharedReceiversConcurrent(t *testing.T) {
	sig := goldenCapture(t)
	rx, reg := newStreamReceiver(t)
	stick := zigbeePHY(t)
	stick.Obs = reg
	aa := AccessPattern()
	wantDem, wantSt, err := stick.DemodulateStats(sig)
	if err != nil {
		t.Fatal(err)
	}
	wantCap, err := rx.PHY().DemodulateFrame(sig, aa, rx.MaxPatternErrors)
	if err != nil {
		t.Fatal(err)
	}
	wantRx, _, err := rx.ReceiveStats(sig)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, calls = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				switch g % 3 {
				case 0:
					dem, st, err := stick.DemodulateStats(sig)
					if err != nil || !bytes.Equal(dem.PPDU.PSDU, wantDem.PPDU.PSDU) ||
						dem.SoftEVM != wantDem.SoftEVM || *st != *wantSt {
						t.Errorf("goroutine %d: DemodulateStats diverged (%v)", g, err)
					}
				case 1:
					got, err := rx.PHY().DemodulateFrame(sig, aa, rx.MaxPatternErrors)
					if err != nil || !bytes.Equal(got.Bits, wantCap.Bits) || got.CFOBias != wantCap.CFOBias ||
						got.SampleOffset != wantCap.SampleOffset || got.SyncScore != wantCap.SyncScore {
						t.Errorf("goroutine %d: DemodulateFrame diverged (%v)", g, err)
					}
				default:
					dem, _, err := rx.ReceiveStats(sig)
					if err != nil || !bytes.Equal(dem.PPDU.PSDU, wantRx.PPDU.PSDU) {
						t.Errorf("goroutine %d: ReceiveStats diverged (%v)", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	const perKind = 1 + goroutines/3*calls
	for _, decoder := range []string{"oqpsk", "wazabee"} {
		if got := reg.Counter("wazabee_frames_received_total", "decoder", decoder).Value(); got != perKind {
			t.Errorf("frames_received{decoder=%s} = %d, want %d", decoder, got, perKind)
		}
		if got := reg.Counter(link.MetricFrames, "result", "decoded", "decoder", decoder).Value(); got != perKind {
			t.Errorf("%s{decoded,%s} = %d, want %d", link.MetricFrames, decoder, got, perKind)
		}
	}
}

// fuzzGolden lazily builds the fuzz corpus capture and its one-shot
// expectation (fuzz functions may run in parallel processes; each builds
// its own).
var fuzzGolden struct {
	once sync.Once
	sig  dsp.IQ
	psdu []byte
	st   link.Stats
	err  error
}

func fuzzSetup() error {
	fuzzGolden.once.Do(func() {
		phy, err := ble.NewPHY(ble.LE2M, 8)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		zphy, err := ieee802154.NewPHY(8)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		payload := []byte{0x61, 0x88, 0x2a}
		fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
		ppdu, err := ieee802154.NewPPDU(append(append([]byte{}, payload...), fcs[0], fcs[1]))
		if err != nil {
			fuzzGolden.err = err
			return
		}
		sig, err := zphy.Modulate(ppdu)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		padded, err := sig.Pad(160, 90)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		rx, err := NewReceiver(phy)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		rx.Obs = obs.NewRegistry()
		dem, st, rerr := rx.ReceiveStats(padded)
		if rerr != nil {
			fuzzGolden.err = rerr
			return
		}
		fuzzGolden.sig = padded
		fuzzGolden.psdu = append([]byte(nil), dem.PPDU.PSDU...)
		fuzzGolden.st = *st
	})
	return fuzzGolden.err
}

// FuzzStreamChunks fuzzes the chunk split points: each input byte picks
// the next chunk length, and any chunking whatsoever must reproduce the
// one-shot decode of the golden capture byte-for-byte.
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{7, 31, 255, 0})
	f.Add([]byte{199, 199, 199, 3, 3, 3})
	f.Fuzz(func(t *testing.T, cuts []byte) {
		if err := fuzzSetup(); err != nil {
			t.Skipf("golden capture unavailable: %v", err)
		}
		sig := fuzzGolden.sig
		phy, err := ble.NewPHY(ble.LE2M, 8)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewReceiver(phy)
		if err != nil {
			t.Fatal(err)
		}
		rx.Obs = obs.NewRegistry()
		s := rx.Stream()
		defer s.Close()

		start, i := 0, 0
		for start < len(sig) {
			n := 1
			if len(cuts) > 0 {
				n = 1 + int(cuts[i%len(cuts)])
				i++
			}
			end := start + n
			if end > len(sig) {
				end = len(sig)
			}
			s.Push(sig[start:end])
			start = end
		}
		dem, st, rerr := s.Flush()
		if rerr != nil {
			t.Fatalf("streaming decode failed where one-shot succeeded: %v", rerr)
		}
		if !bytes.Equal(dem.PPDU.PSDU, fuzzGolden.psdu) {
			t.Fatalf("PSDU % x, one-shot % x", dem.PPDU.PSDU, fuzzGolden.psdu)
		}
		if *st != fuzzGolden.st {
			t.Fatalf("stats differ:\n got %+v\nwant %+v", *st, fuzzGolden.st)
		}
	})
}
