package ieee802154

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"wazabee/internal/bitstream"
)

// frameTransitions builds the MSK transition stream of a spread PPDU —
// the bit stream a synchronised receiver hands the despreader.
func frameTransitions(t *testing.T, psdu []byte) bitstream.Bits {
	t.Helper()
	ppdu, err := NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	return ChipTransitions(Spread(ppdu.Bytes()))
}

// feedInChunks drives a TransitionDespreader with growing prefixes of
// bits, cut at the given split points, and returns its final verdict.
func feedInChunks(d *TransitionDespreader, bits bitstream.Bits, chunk int) (*Demodulated, error) {
	for end := chunk; ; end += chunk {
		if end > len(bits) {
			end = len(bits)
		}
		dem, done, err := d.Feed(bits[:end])
		if err != nil {
			return nil, err
		}
		if done {
			return dem, nil
		}
		if end == len(bits) {
			return nil, d.Conclude()
		}
	}
}

// sameEvidence reports whether two decodes carry the identical PSDU and
// despreading evidence.
func sameEvidence(a, b *Demodulated) bool {
	return bytes.Equal(a.PPDU.PSDU, b.PPDU.PSDU) &&
		a.WorstChipDistance == b.WorstChipDistance &&
		a.TotalChipDistance == b.TotalChipDistance &&
		a.SymbolCount == b.SymbolCount &&
		a.ChipDistHist == b.ChipDistHist &&
		a.TransitionSpan == b.TransitionSpan
}

// TestTransitionDespreaderMatchesOneShot: a clean frame despreads to its
// PSDU at distance zero — 2·(1+9) PHR/PSDU symbols after an 8-symbol
// preamble and the SFD, spanning (8+4+2·9)·32 transitions — and every
// feed granularity reproduces the one-shot (whole-stream) feed exactly.
func TestTransitionDespreaderMatchesOneShot(t *testing.T) {
	psdu := []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0xff, 0x0f, 0x42, 0x99}
	bits := frameTransitions(t, psdu)

	want, err := feedInChunks(NewTransitionDespreader(), bits, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.PPDU.PSDU, psdu) {
		t.Fatalf("PSDU % x, want % x", want.PPDU.PSDU, psdu)
	}
	const symbols = 2 * (1 + 9)
	if want.WorstChipDistance != 0 || want.TotalChipDistance != 0 || want.SymbolCount != symbols ||
		want.ChipDistHist != [17]uint32{0: symbols} || want.TransitionSpan != (8+4+2*9)*ChipsPerSymbol {
		t.Fatalf("clean evidence %+v", want)
	}

	for _, chunk := range []int{1, 7, 30, 31, 32, 63, 500} {
		got, err := feedInChunks(NewTransitionDespreader(), bits, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !sameEvidence(got, want) {
			t.Fatalf("chunk=%d: evidence %+v, whole stream %+v", chunk, got, want)
		}
	}
}

// TestTransitionDespreaderCorruptedParity: chip errors flipped into the
// PHR/PSDU blocks (at most three per 31-transition block, well inside
// the alphabet's correction radius) still decode the PSDU, and the
// distances equal the flips counted per block — the boundary transition
// between blocks is skipped and counts nothing. Random corruption
// anywhere, including the preamble and SFD, must give every chunked
// feed the whole-stream verdict.
func TestTransitionDespreaderCorruptedParity(t *testing.T) {
	psdu := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	base := frameTransitions(t, psdu)
	const firstBlock = 8 + 2 // preamble and SFD symbols
	blocks := 2 * (1 + len(psdu))
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		bits := bitstream.Clone(base)
		var hist [17]uint32
		worst, total := 0, 0
		for n := 0; n < blocks; n++ {
			start := (firstBlock + n) * ChipsPerSymbol
			flipped := map[int]bool{}
			for k := rnd.Intn(4); k > 0; k-- {
				if i := rnd.Intn(ChipsPerSymbol); start+i < len(bits) {
					flipped[i] = true
				}
			}
			d := 0
			for i := range flipped {
				bits[start+i] ^= 1
				if i < ChipsPerSymbol-1 {
					d++
				}
			}
			hist[d]++
			total += d
			if d > worst {
				worst = d
			}
		}
		want, err := feedInChunks(NewTransitionDespreader(), bits, len(bits))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(want.PPDU.PSDU, psdu) || want.WorstChipDistance != worst ||
			want.TotalChipDistance != total || want.SymbolCount != blocks || want.ChipDistHist != hist {
			t.Fatalf("trial %d: evidence %+v, want worst %d total %d hist %v", trial, want, worst, total, hist)
		}
		got, err := feedInChunks(NewTransitionDespreader(), bits, 1+rnd.Intn(97))
		if err != nil || !sameEvidence(got, want) {
			t.Fatalf("trial %d: chunked %+v (%v), whole stream %+v", trial, got, err, want)
		}
	}

	for trial := 0; trial < 20; trial++ {
		bits := bitstream.Clone(base)
		for i := 0; i < 12+trial; i++ {
			bits[rnd.Intn(len(bits))] ^= 1
		}
		want, wantErr := feedInChunks(NewTransitionDespreader(), bits, len(bits))
		got, err := feedInChunks(NewTransitionDespreader(), bits, 1+rnd.Intn(97))
		if !errors.Is(err, wantErr) || (wantErr == nil) != (err == nil) {
			t.Fatalf("trial %d: chunked err %v, whole stream err %v", trial, err, wantErr)
		}
		if wantErr == nil && !sameEvidence(got, want) {
			t.Fatalf("trial %d: chunked %+v, whole stream %+v", trial, got, want)
		}
	}
}

// TestTransitionDespreaderTruncation: a stream that ends mid-frame
// concludes ErrNoSync at every feed granularity, a stream with no SFD
// inside the preamble window aborts permanently with ErrNoSync, and
// Reset makes the despreader decode again.
func TestTransitionDespreaderTruncation(t *testing.T) {
	psdu := []byte{1, 2, 3, 4}
	bits := frameTransitions(t, psdu)

	truncated := bits[:len(bits)/2]
	for _, chunk := range []int{13, len(truncated)} {
		if dem, err := feedInChunks(NewTransitionDespreader(), truncated, chunk); err != ErrNoSync || dem != nil {
			t.Fatalf("chunk=%d: truncated decode = (%v, %v), want ErrNoSync", chunk, dem, err)
		}
	}

	// All-zero transitions: the SFD never appears inside the preamble
	// window — the abort is permanent.
	junk := make(bitstream.Bits, 4096)
	for _, chunk := range []int{64, len(junk)} {
		if _, err := feedInChunks(NewTransitionDespreader(), junk, chunk); err != ErrNoSync {
			t.Fatalf("chunk=%d: no-SFD error %v, want ErrNoSync", chunk, err)
		}
	}
	d := NewTransitionDespreader()
	if _, err := feedInChunks(d, junk, 64); err != ErrNoSync {
		t.Fatalf("no-SFD error %v, want ErrNoSync", err)
	}
	if _, _, ferr := d.Feed(bits); ferr != ErrNoSync {
		t.Errorf("despreader recovered from a permanent abort without Reset: %v", ferr)
	}

	// Reset must make it decode again.
	d.Reset()
	if dem, err := feedInChunks(d, bits, 1000); err != nil || !bytes.Equal(dem.PPDU.PSDU, psdu) {
		t.Fatalf("decode after Reset = (%v, %v)", dem, err)
	}
}

// TestAppendSpread: the pooled appending form must produce exactly the
// chips of Spread, appended after the existing prefix.
func TestAppendSpread(t *testing.T) {
	data := []byte{0x00, 0xa7, 0x5b, 0xff}
	want := Spread(data)
	prefix := bitstream.Bits{1, 0, 1}
	got := AppendSpread(bitstream.Clone(prefix), data)
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("AppendSpread length %d, want %d", len(got), len(prefix)+len(want))
	}
	if got[:3].String() != prefix.String() {
		t.Error("AppendSpread clobbered the prefix")
	}
	if got[3:].String() != want.String() {
		t.Error("AppendSpread chips differ from Spread")
	}
}
