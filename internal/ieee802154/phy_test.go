package ieee802154

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
)

const testSPS = 8

func testPHY(t *testing.T) *PHY {
	t.Helper()
	phy, err := NewPHY(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

func testPPDU(t *testing.T, payload []byte) *PPDU {
	t.Helper()
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	ppdu, err := NewPPDU(append(append([]byte{}, payload...), fcs[0], fcs[1]))
	if err != nil {
		t.Fatal(err)
	}
	return ppdu
}

func TestNewPHYValidation(t *testing.T) {
	if _, err := NewPHY(1); err == nil {
		t.Error("expected error for sps=1")
	}
}

func TestModulateChipsConstantEnvelope(t *testing.T) {
	phy := testPHY(t)
	chips := Spread([]byte{0x12, 0x34, 0x56})
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		t.Fatal(err)
	}
	// Away from the one-chip edge transients, the envelope is constant.
	inner := sig[2*testSPS : len(sig)-2*testSPS]
	if d := inner.EnvelopeDeviation(); d > 1e-9 {
		t.Errorf("envelope deviation = %g, want ~0", d)
	}
}

func TestModulateChipsRotationDirections(t *testing.T) {
	phy := testPHY(t)
	// Chips 1,1,0,1: derived by hand in spread.go, the rotations while
	// modulating chips 1..3 are CCW, CCW, CCW? No: transitions are
	// b1=NOT(1^1)=1 (CCW), b2=(0^1)=1 (CCW), b3=NOT(1^0)=0 (CW).
	chips := bitstream.Bits{1, 1, 0, 1}
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		t.Fatal(err)
	}
	incs := dsp.Discriminate(sig)
	want := ChipTransitions(chips)
	for k := 1; k <= 3; k++ {
		sum := 0.0
		for i := k * testSPS; i < (k+1)*testSPS && i < len(incs); i++ {
			sum += incs[i]
		}
		got := byte(0)
		if sum > 0 {
			got = 1
		}
		if got != want[k-1] {
			t.Errorf("rotation during chip %d = %d, want %d", k, got, want[k-1])
		}
		if math.Abs(math.Abs(sum)-math.Pi/2) > 0.05 {
			t.Errorf("|rotation| during chip %d = %g, want π/2", k, math.Abs(sum))
		}
	}
}

func TestModulateChipsEmpty(t *testing.T) {
	phy := testPHY(t)
	if _, err := phy.ModulateChips(nil); err == nil {
		t.Error("expected error for empty chips")
	}
	if _, err := phy.Modulate(nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
}

func TestOQPSKSignalIsMSKOfChipTransitions(t *testing.T) {
	// The theoretical core of the paper: the phase trajectory of the
	// O-QPSK half-sine waveform advances by ±π/2 per chip period with
	// linear transitions — i.e. it is an MSK signal whose bits are the
	// chip transitions.
	phy := testPHY(t)
	chips := Spread([]byte{0xa5, 0x0f, 0x37})
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		t.Fatal(err)
	}
	incs := dsp.Discriminate(sig)
	want := ChipTransitions(chips)
	for k := 1; k < len(chips); k++ {
		sum := 0.0
		for i := k * testSPS; i < (k+1)*testSPS; i++ {
			sum += incs[i]
		}
		wantPhase := math.Pi / 2
		if want[k-1] == 0 {
			wantPhase = -wantPhase
		}
		if math.Abs(sum-wantPhase) > 0.05 {
			t.Fatalf("chip %d accumulated %g, want %g", k, sum, wantPhase)
		}
	}
}

func modulateOnAir(t *testing.T, phy *PHY, ppdu *PPDU, pad int) dsp.IQ {
	t.Helper()
	sig, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(pad, pad)
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

func TestDemodulateCleanRoundTrip(t *testing.T) {
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0xaa})
	sig := modulateOnAir(t, phy, ppdu, 300)

	dem, err := phy.Demodulate(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) {
		t.Errorf("PSDU = % x, want % x", dem.PPDU.PSDU, ppdu.PSDU)
	}
	if dem.WorstChipDistance > 2 {
		t.Errorf("worst chip distance = %d on a clean channel", dem.WorstChipDistance)
	}
	if !bitstream.CheckFCS(dem.PPDU.PSDU) {
		t.Error("FCS of recovered PSDU does not verify")
	}
}

func TestDemodulateWithNoise(t *testing.T) {
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{0x01, 0x02, 0x03, 0x04, 0x05})
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		sig := modulateOnAir(t, phy, ppdu, 200)
		if err := dsp.AddAWGN(sig, 12, rnd); err != nil {
			t.Fatal(err)
		}
		dem, err := phy.Demodulate(sig)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) {
			t.Fatalf("trial %d: PSDU mismatch", trial)
		}
	}
}

func TestDemodulateWithCFOAndPhase(t *testing.T) {
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{0xde, 0xad, 0xbe, 0xef})
	sig := modulateOnAir(t, phy, ppdu, 250)
	// 30 kHz CFO at 16 MS/s plus an arbitrary carrier phase.
	sig.MixFrequency(30e3 / (float64(testSPS) * ChipRate))
	sig.RotatePhase(1.1)

	dem, err := phy.Demodulate(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) {
		t.Error("PSDU mismatch under CFO")
	}
	if dem.CFOBias <= 0 {
		t.Errorf("CFO bias estimate = %g, want > 0 for positive offset", dem.CFOBias)
	}
}

func TestDemodulateTimingOffsets(t *testing.T) {
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{0x10, 0x20, 0x30})
	base, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < testSPS; off++ {
		sig, err := base.Clone().Pad(100+off, 100)
		if err != nil {
			t.Fatal(err)
		}
		dem, err := phy.Demodulate(sig)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) {
			t.Fatalf("offset %d: PSDU mismatch", off)
		}
	}
}

func TestDemodulateNoSignal(t *testing.T) {
	phy := testPHY(t)
	rnd := rand.New(rand.NewSource(5))
	noise, err := dsp.NoiseFloor(8192, 0.1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phy.Demodulate(noise); !errors.Is(err, ErrNoSync) {
		t.Errorf("demodulating noise returned %v, want ErrNoSync", err)
	}
	if _, err := phy.Demodulate(make(dsp.IQ, 10)); !errors.Is(err, ErrNoSync) {
		t.Errorf("demodulating short capture returned %v, want ErrNoSync", err)
	}
}

func TestDemodulateTruncatedFrame(t *testing.T) {
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	sig, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := sig[:len(sig)/2].Pad(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phy.Demodulate(cut); !errors.Is(err, ErrNoSync) {
		t.Errorf("truncated frame returned %v, want ErrNoSync", err)
	}
}

func TestDemodulateBitErrorResilience(t *testing.T) {
	// Heavy but survivable noise: the Hamming despreader must still
	// recover the frame even when individual chip decisions flip.
	phy := testPHY(t)
	ppdu := testPPDU(t, []byte{0x55, 0xaa, 0x12})
	rnd := rand.New(rand.NewSource(99))
	recovered := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		sig := modulateOnAir(t, phy, ppdu, 150)
		if err := dsp.AddAWGN(sig, 6, rnd); err != nil {
			t.Fatal(err)
		}
		dem, err := phy.Demodulate(sig)
		if err != nil {
			continue
		}
		if bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) {
			recovered++
		}
	}
	if recovered < trials*3/4 {
		t.Errorf("recovered %d/%d frames at 6 dB SNR, want ≥ %d", recovered, trials, trials*3/4)
	}
}

func TestSyncPatternBalance(t *testing.T) {
	// The preamble correlation pattern must not be degenerate (all
	// zeros/ones), or silence would false-trigger the correlator.
	pat := oqpskSyncPattern
	ones := 0
	for _, b := range pat {
		ones += int(b)
	}
	if len(pat) != 63 {
		t.Fatalf("sync pattern length = %d, want 63", len(pat))
	}
	if ones < 16 || ones > 47 {
		t.Errorf("sync pattern weight = %d/63, dangerously unbalanced", ones)
	}
}
