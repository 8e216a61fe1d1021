package ieee802154

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// FuzzParseMACFrame hunts for panics and encode/parse asymmetries in the
// MAC frame codec fed with arbitrary PSDUs.
func FuzzParseMACFrame(f *testing.F) {
	seed, _ := NewDataFrame(1, 0x1234, 0x0042, 0x0063, []byte{1, 2, 3}, true).Encode()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add(fcsValidPSDU(f, MaxPSDULength+1))
	f.Fuzz(func(t *testing.T, psdu []byte) {
		frame, err := ParseMACFrame(psdu)
		if err != nil {
			return
		}
		if len(psdu) > MaxPSDULength {
			t.Fatalf("parser accepted oversized PSDU (%d)", len(psdu))
		}
		// Whatever parses must re-encode and re-parse to the same
		// frame.
		out, err := frame.Encode()
		if err != nil {
			t.Fatalf("parsed frame does not re-encode: %v", err)
		}
		back, err := ParseMACFrame(out)
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if back.Type != frame.Type || back.Seq != frame.Seq ||
			back.DestAddr != frame.DestAddr || back.SrcAddr != frame.SrcAddr ||
			!bytes.Equal(back.Payload, frame.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", frame, back)
		}
	})
}

// FuzzParsePPDU exercises the PHY frame parser.
func FuzzParsePPDU(f *testing.F) {
	ppdu, _ := NewPPDU([]byte{1, 2, 3})
	f.Add(ppdu.Bytes())
	f.Add([]byte{0, 0, 0, 0, SFD, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := ParsePPDU(raw)
		if err != nil {
			return
		}
		if len(p.PSDU) > MaxPSDULength {
			t.Fatalf("parser accepted oversized PSDU (%d)", len(p.PSDU))
		}
	})
}

// FuzzOpenFrame feeds the CCM* opener hostile ciphertexts: it must never
// panic and never authenticate garbage.
func FuzzOpenFrame(f *testing.F) {
	key := []byte("0123456789abcdef")
	nonce := Nonce(7, 1, SecEncMIC32)
	sealed, _ := SecureFrame(key, nonce, SecEncMIC32, []byte{1}, []byte("x"))
	f.Add(sealed)
	f.Fuzz(func(t *testing.T, secured []byte) {
		payload, err := OpenFrame(key, nonce, SecEncMIC32, []byte{1}, secured)
		if err != nil {
			return
		}
		// Anything that authenticates must round-trip through
		// SecureFrame to the same ciphertext.
		again, err := SecureFrame(key, nonce, SecEncMIC32, []byte{1}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, secured) {
			t.Fatalf("authenticated ciphertext is not canonical")
		}
	})
}

// oqpskFuzzCapture is the fuzzed O-QPSK capture: a frame at 3 dB SNR
// with a 60 kHz CFO, whose preamble locks with 4 pattern errors — inside
// the stick's 6-error budget over 63 transitions and beyond anything the
// WazaBee receiver's 3-error, 32-bit Access Address search can reach.
func oqpskFuzzCapture(tb testing.TB) (*PHY, dsp.IQ) {
	tb.Helper()
	phy, err := NewPHY(8)
	if err != nil {
		tb.Fatal(err)
	}
	fcs := bitstream.FCS16Bytes(bitstream.FCS16([]byte{0x61, 0x88, 0x2a, 0x34, 0x12}))
	ppdu, err := NewPPDU([]byte{0x61, 0x88, 0x2a, 0x34, 0x12, fcs[0], fcs[1]})
	if err != nil {
		tb.Fatal(err)
	}
	base, err := phy.Modulate(ppdu)
	if err != nil {
		tb.Fatal(err)
	}
	sig, err := base.Pad(300, 200)
	if err != nil {
		tb.Fatal(err)
	}
	sig.MixFrequency(60e3 / (8 * ChipRate))
	if err := dsp.AddAWGN(sig, 3, rand.New(rand.NewSource(12))); err != nil {
		tb.Fatal(err)
	}
	return phy, sig
}

// rxVerdict renders a receive attempt — error, frame evidence, link
// stats and every registry series except the per-Push stage timings —
// for comparing chunkings.
func rxVerdict(dem *Demodulated, st *link.Stats, err error, reg *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v\nstats %s\n", err, floatFields(*st))
	if dem != nil {
		fmt.Fprintf(&b, "dem psdu=%x sync=%d off=%d cfo=%v corr=%v evm=%v worst=%d total=%d hist=%v span=%d\n",
			dem.PPDU.PSDU, dem.SyncErrors, dem.SampleOffset, dem.CFOBias, dem.SyncCorr, dem.SoftEVM,
			dem.WorstChipDistance, dem.TotalChipDistance, dem.ChipDistHist, dem.TransitionSpan)
	}
	for _, line := range registryLines(reg) {
		if !strings.HasPrefix(line, obs.StageSecondsMetric+"{") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// FuzzOQPSKStreamChunks fuzzes the chunking of a noisy O-QPSK capture
// through the stick's receiver: each input byte picks the next chunk
// length, and any chunking must give the verdict of a single Push —
// frame, stats, error and registry counts.
func FuzzOQPSKStreamChunks(f *testing.F) {
	phy, sig := oqpskFuzzCapture(f)
	phy.Obs = obs.NewRegistry()
	dem, st, err := phy.DemodulateStats(sig)
	if err != nil || dem.SyncErrors <= 3 {
		f.Fatalf("fuzz capture decodes with %v, %d sync errors; want a decode beyond the 3-error AA budget", err, st.SyncErrors)
	}
	want := rxVerdict(dem, st, err, phy.Obs)
	f.Add([]byte{1})
	f.Add([]byte{7, 31, 255, 0})
	f.Add([]byte{199, 199, 199, 3, 3, 3})
	f.Fuzz(func(t *testing.T, cuts []byte) {
		phy, sig := oqpskFuzzCapture(t)
		phy.Obs = obs.NewRegistry()
		s := phy.stream()
		defer s.Close()
		for start, i := 0, 0; start < len(sig); i++ {
			n := 1
			if len(cuts) > 0 {
				n = 1 + int(cuts[i%len(cuts)])
			}
			end := min(start+n, len(sig))
			s.Push(sig[start:end])
			start = end
		}
		dem, st, err := s.Flush()
		if got := rxVerdict(dem, st, err, phy.Obs); got != want {
			t.Fatalf("chunked verdict differs from one Push:\n got %s\nwant %s", got, want)
		}
	})
}
