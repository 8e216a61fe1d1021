package ble

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
)

// renderDemodulateFrameGolden runs a seeded capture set through
// DemodulateFrame at one mode and oversampling factor, at pattern-error
// budgets 0, 3 and 6: clean frames, AWGN from −2 to 12 dB, ±40 ppm CFO
// with a random carrier phase, sample timing offsets, a frame truncated
// at 2/3, noise only and a capture below the minimum length. Each row
// renders the verdict and every Capture field, floats as IEEE-754 bits
// and the bit stream as a digest.
func renderDemodulateFrameGolden(t *testing.T, mode Mode, sps int) string {
	t.Helper()
	phy, err := NewPHY(mode, sps)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := mode.SymbolRate()
	if err != nil {
		t.Fatal(err)
	}
	aa := bitstream.Uint32ToBits(0x71764129)
	payload := bitstream.BytesToBits([]byte{0x13, 0x37, 0xc0, 0xde, 0x99, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	air := append(append(bitstream.Bits{0, 1, 0, 1, 0, 1, 0, 1}, aa...), payload...)
	base, err := phy.ModulateBits(air)
	if err != nil {
		t.Fatal(err)
	}
	pad := func(before, after int) dsp.IQ {
		out, err := base.Pad(before, after)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	noisy := func(sig dsp.IQ, snr float64, seed int64) dsp.IQ {
		if err := dsp.AddAWGN(sig, snr, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		return sig
	}
	before, after := 37*sps+1, 20*sps
	type capture struct {
		name string
		sig  dsp.IQ
	}
	caps := []capture{{"clean", pad(before, after)}}
	for snr := -2; snr <= 12; snr += 2 {
		caps = append(caps, capture{fmt.Sprintf("awgn%+ddB", snr), noisy(pad(before, after), float64(snr), int64(100+snr))})
	}
	for i, ppm := range []float64{-40, 40} {
		sig := pad(before, after)
		sig.MixFrequency(ppm * 1e-6 * 2.402e9 / float64(rate*sps))
		sig.RotatePhase(rand.New(rand.NewSource(int64(31+i))).Float64() * 2 * math.Pi)
		caps = append(caps, capture{fmt.Sprintf("cfo%+gppm", ppm), noisy(sig, 10, int64(41+i))})
	}
	for off := 1; off < sps; off += 2 {
		caps = append(caps, capture{fmt.Sprintf("timing%d", off), noisy(pad(before+off, after), 6, int64(500+off))})
	}
	whole := pad(before, after)
	caps = append(caps, capture{"truncated", whole[:2*len(whole)/3]})
	noise, err := dsp.NoiseFloor(400*sps, 0.05, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	caps = append(caps, capture{"noise", noise}, capture{"short", noise[:(len(aa)+2)*sps-1]})

	var b strings.Builder
	for _, c := range caps {
		for _, budget := range []int{0, 3, 6} {
			got, err := phy.DemodulateFrame(c.sig, aa, budget)
			verdict := "synced"
			switch {
			case errors.Is(err, ErrNoAccessAddress):
				verdict = "no_access_address"
			case err != nil:
				verdict = "error " + err.Error()
			}
			fmt.Fprintf(&b, "%s %s len=%d budget=%d verdict=%s", c.name, mode, len(c.sig), budget, verdict)
			if got != nil {
				fmt.Fprintf(&b, " bits=%d/%x patternErrors=%d patternStart=%d sampleOffset=%d syncScore=%016x cfoBias=%016x",
					len(got.Bits), sha256.Sum256(got.Bits), got.PatternErrors, got.PatternStart, got.SampleOffset,
					math.Float64bits(got.SyncScore), math.Float64bits(got.CFOBias))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestDemodulateFrameGoldens pins every Access-Address search decision
// of DemodulateFrame for LE 1M and LE 2M at 4 and 8 samples per symbol.
// Regenerate (only when a receiver change is meant to move them) with:
//
//	RECEIVER_UPDATE_GOLDEN=1 go test ./internal/ble -run TestDemodulateFrameGoldens
func TestDemodulateFrameGoldens(t *testing.T) {
	for _, sps := range []int{4, 8} {
		t.Run(fmt.Sprintf("sps%d", sps), func(t *testing.T) {
			got := renderDemodulateFrameGolden(t, LE1M, sps) + renderDemodulateFrameGolden(t, LE2M, sps)
			path := filepath.Join("testdata", fmt.Sprintf("demodulate_frame_sps%d.golden", sps))
			if os.Getenv("RECEIVER_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
