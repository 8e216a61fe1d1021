package ble

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
)

func TestChannelFrequencies(t *testing.T) {
	tests := []struct {
		channel int
		want    float64
	}{
		{0, 2404}, {3, 2410}, {8, 2420}, {10, 2424},
		{11, 2428}, {12, 2430}, {17, 2440}, {22, 2450},
		{27, 2460}, {32, 2470}, {36, 2478},
		{37, 2402}, {38, 2426}, {39, 2480},
	}
	for _, tt := range tests {
		got, err := ChannelFrequencyMHz(tt.channel)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("channel %d frequency = %g, want %g", tt.channel, got, tt.want)
		}
	}
	if _, err := ChannelFrequencyMHz(40); err == nil {
		t.Error("expected error for channel 40")
	}
	if _, err := ChannelFrequencyMHz(-1); err == nil {
		t.Error("expected error for channel -1")
	}
}

func TestChannelFrequenciesUniqueAndSkipAdvertising(t *testing.T) {
	seen := make(map[float64]int, ChannelCount)
	for ch := 0; ch < ChannelCount; ch++ {
		f, err := ChannelFrequencyMHz(ch)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[f]; dup {
			t.Errorf("channels %d and %d share frequency %g", prev, ch, f)
		}
		seen[f] = ch
	}
	// Data channels must not collide with 2402/2426/2480.
	for ch := 0; ch <= 36; ch++ {
		f, _ := ChannelFrequencyMHz(ch)
		if f == 2402 || f == 2426 || f == 2480 {
			t.Errorf("data channel %d reuses an advertising frequency", ch)
		}
	}
}

func TestChannelForFrequency(t *testing.T) {
	ch, err := ChannelForFrequencyMHz(2420)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 8 {
		t.Errorf("2420 MHz = channel %d, want 8", ch)
	}
	if _, err := ChannelForFrequencyMHz(2403); err == nil {
		t.Error("expected error for unused frequency")
	}
}

func TestIsDataChannel(t *testing.T) {
	if !IsDataChannel(0) || !IsDataChannel(36) {
		t.Error("0 and 36 are data channels")
	}
	if IsDataChannel(37) || IsDataChannel(-1) {
		t.Error("37 and -1 are not data channels")
	}
}

func TestModeProperties(t *testing.T) {
	tests := []struct {
		mode     Mode
		rate     int
		preamble int
		str      string
	}{
		{LE1M, 1_000_000, 1, "LE 1M"},
		{LE2M, 2_000_000, 2, "LE 2M"},
		{ESB2M, 2_000_000, 1, "ESB 2M"},
	}
	for _, tt := range tests {
		r, err := tt.mode.SymbolRate()
		if err != nil {
			t.Fatal(err)
		}
		if r != tt.rate {
			t.Errorf("%v rate = %d, want %d", tt.mode, r, tt.rate)
		}
		if got := tt.mode.PreambleLength(); got != tt.preamble {
			t.Errorf("%v preamble = %d, want %d", tt.mode, got, tt.preamble)
		}
		if tt.mode.String() != tt.str {
			t.Errorf("String() = %q, want %q", tt.mode.String(), tt.str)
		}
	}
	if _, err := Mode(0).SymbolRate(); err == nil {
		t.Error("expected error for invalid mode")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unexpected String for invalid mode")
	}
}

func TestNewPHYValidation(t *testing.T) {
	if _, err := NewPHY(Mode(0), 8); err == nil {
		t.Error("expected error for invalid mode")
	}
	if _, err := NewPHY(LE2M, 1); err == nil {
		t.Error("expected error for sps=1")
	}
	if _, err := NewPHYWithShaping(LE2M, 8, 0, 0.5); err == nil {
		t.Error("expected error for zero modulation index")
	}
	if _, err := NewPHYWithShaping(LE2M, 8, 1.5, 0.5); err == nil {
		t.Error("expected error for modulation index > 1")
	}
}

func TestModulateBitsPhaseSteps(t *testing.T) {
	// Without the Gaussian filter the modulator is exact MSK: each bit
	// accumulates ±π/2 of phase.
	phy, err := NewPHYWithShaping(LE2M, 8, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	bits, _ := bitstream.ParseBits("1101001")
	sig, err := phy.ModulateBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	incs := dsp.Discriminate(sig)
	sums := dsp.IntegrateSymbols(incs, 0, 8)
	for i, b := range bits {
		want := math.Pi / 2
		if b == 0 {
			want = -want
		}
		if math.Abs(sums[i]-want) > 1e-9 {
			t.Errorf("bit %d accumulated %g, want %g", i, sums[i], want)
		}
	}
}

func TestModulateBitsConstantEnvelope(t *testing.T) {
	phy, err := NewPHY(LE2M, 8)
	if err != nil {
		t.Fatal(err)
	}
	bits := bitstream.BytesToBits([]byte{0x3c, 0xa9, 0x55})
	sig, err := phy.ModulateBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	if d := sig.EnvelopeDeviation(); d > 1e-9 {
		t.Errorf("GFSK envelope deviation = %g, want 0 (constant envelope)", d)
	}
}

func TestModulateBitsEmpty(t *testing.T) {
	phy, _ := NewPHY(LE2M, 8)
	if _, err := phy.ModulateBits(nil); err == nil {
		t.Error("expected error for empty bits")
	}
}

func TestGFSKLoopback(t *testing.T) {
	// A GFSK modulator feeding its own discriminator-based receiver
	// must recover the transmitted bits exactly on a clean channel.
	phy, err := NewPHY(LE2M, 8)
	if err != nil {
		t.Fatal(err)
	}
	aa := bitstream.Uint32ToBits(AdvAccessAddress)
	payload := bitstream.BytesToBits([]byte{0x13, 0x37, 0xc0, 0xde, 0x99})
	all := append(append(bitstream.Bits{0, 1, 0, 1, 0, 1, 0, 1}, aa...), payload...)

	sig, err := phy.ModulateBits(all)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(111, 50)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := phy.DemodulateFrame(padded, aa, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := cap.Bits[len(aa) : len(aa)+len(payload)]
	if got.String() != payload.String() {
		t.Errorf("payload bits = %s, want %s", got, payload)
	}
	if cap.PatternErrors != 0 {
		t.Errorf("pattern errors = %d on a clean channel", cap.PatternErrors)
	}
}

func TestGFSKLoopbackUnderImpairments(t *testing.T) {
	phy, err := NewPHY(LE2M, 8)
	if err != nil {
		t.Fatal(err)
	}
	aa := bitstream.Uint32ToBits(0x71764129)
	payload := bitstream.BytesToBits([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	all := append(bitstream.Clone(aa), payload...)
	rnd := rand.New(rand.NewSource(21))

	for trial := 0; trial < 10; trial++ {
		sig, err := phy.ModulateBits(all)
		if err != nil {
			t.Fatal(err)
		}
		padded, err := sig.Pad(200, 60)
		if err != nil {
			t.Fatal(err)
		}
		padded.MixFrequency(25e3 / 16e6)
		padded.RotatePhase(rnd.Float64() * 2 * math.Pi)
		if err := dsp.AddAWGN(padded, 14, rnd); err != nil {
			t.Fatal(err)
		}
		cap, err := phy.DemodulateFrame(padded, aa, 4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := cap.Bits[len(aa) : len(aa)+len(payload)]
		if got.String() != payload.String() {
			t.Fatalf("trial %d: payload corrupted", trial)
		}
	}
}

func TestDemodulateFrameNoMatch(t *testing.T) {
	phy, _ := NewPHY(LE2M, 8)
	rnd := rand.New(rand.NewSource(3))
	noise, err := dsp.NoiseFloor(4096, 0.5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, err = phy.DemodulateFrame(noise, bitstream.Uint32ToBits(0x12345678), 2)
	if !errors.Is(err, ErrNoAccessAddress) {
		t.Errorf("error = %v, want ErrNoAccessAddress", err)
	}
	if _, err := phy.DemodulateFrame(noise, nil, 2); err == nil {
		t.Error("expected error for empty pattern")
	}
	if _, err := phy.DemodulateFrame(make(dsp.IQ, 8), bitstream.Uint32ToBits(1), 2); !errors.Is(err, ErrNoAccessAddress) {
		t.Error("expected ErrNoAccessAddress for tiny capture")
	}
}

func TestDemodulateRaw(t *testing.T) {
	phy, err := NewPHYWithShaping(LE2M, 8, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	bits, _ := bitstream.ParseBits("10110")
	sig, err := phy.ModulateBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	got := phy.DemodulateRaw(sig, 0)
	if got[:len(bits)].String() != bits.String() {
		t.Errorf("DemodulateRaw = %s, want prefix %s", got[:len(bits)], bits)
	}
}

func TestPreambleByte(t *testing.T) {
	if preambleByte(0x8e89bed6) != 0xaa {
		t.Error("AA with even LSB should use 0xAA preamble")
	}
	if preambleByte(0x00000001) != 0x55 {
		t.Error("AA with odd LSB should use 0x55 preamble")
	}
}

func TestPacketAirBitsLayout(t *testing.T) {
	pkt := &Packet{
		AccessAddress:    AdvAccessAddress,
		PDU:              []byte{0x42, 0x01, 0x99},
		Channel:          8,
		Mode:             LE2M,
		DisableWhitening: true,
		DisableCRC:       true,
	}
	bits, err := pkt.AirBits()
	if err != nil {
		t.Fatal(err)
	}
	// LE 2M: 2 preamble bytes + 4 AA bytes + 3 PDU bytes.
	if len(bits) != (2+4+3)*8 {
		t.Fatalf("air bits = %d, want %d", len(bits), (2+4+3)*8)
	}
	wantAA := bitstream.Uint32ToBits(AdvAccessAddress)
	if bits[16:48].String() != wantAA.String() {
		t.Error("access address bits wrong")
	}
	if bits[48:].String() != bitstream.BytesToBits(pkt.PDU).String() {
		t.Error("raw PDU bits wrong with whitening disabled")
	}
}

func TestPacketRoundTripWhitenedWithCRC(t *testing.T) {
	pkt := &Packet{
		AccessAddress: AdvAccessAddress,
		PDU:           []byte{0x07, 0x05, 0xde, 0xad, 0xbe, 0xef, 0x01},
		Channel:       17,
		Mode:          LE2M,
		CRCInit:       bitstream.BLEAdvCRCInit,
	}
	bits, err := pkt.AirBits()
	if err != nil {
		t.Fatal(err)
	}
	// Strip preamble + AA to get the receiver's post-AA view.
	body := bits[(2+4)*8:]
	pdu, crcOK, err := pkt.ParseAirBits(body, len(pkt.PDU))
	if err != nil {
		t.Fatal(err)
	}
	if !crcOK {
		t.Error("CRC did not verify")
	}
	if !bytes.Equal(pdu, pkt.PDU) {
		t.Errorf("PDU = % x, want % x", pdu, pkt.PDU)
	}

	// A corrupted bit must fail the CRC.
	body[10] ^= 1
	_, crcOK, err = pkt.ParseAirBits(body, len(pkt.PDU))
	if err != nil {
		t.Fatal(err)
	}
	if crcOK {
		t.Error("CRC verified a corrupted packet")
	}
}

func TestPacketWhiteningChangesAirBits(t *testing.T) {
	mk := func(disable bool) bitstream.Bits {
		pkt := &Packet{
			AccessAddress:    0x12345678,
			PDU:              []byte{0xff, 0x00, 0xff},
			Channel:          8,
			Mode:             LE2M,
			DisableWhitening: disable,
			DisableCRC:       true,
		}
		bits, err := pkt.AirBits()
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}
	if mk(true).String() == mk(false).String() {
		t.Error("whitening had no effect on air bits")
	}
}

func TestPacketValidation(t *testing.T) {
	pkt := &Packet{Channel: 41, Mode: LE2M}
	if _, err := pkt.AirBits(); err == nil {
		t.Error("expected error for bad channel")
	}
	pkt = &Packet{Channel: 0, Mode: Mode(0)}
	if _, err := pkt.AirBits(); err == nil {
		t.Error("expected error for bad mode")
	}
	good := &Packet{Channel: 0, Mode: LE2M, DisableCRC: true}
	if _, _, err := good.ParseAirBits(make(bitstream.Bits, 4), 4); err == nil {
		t.Error("expected error for short capture")
	}
}

func TestPacketAirBitsPropertyRoundTrip(t *testing.T) {
	// Property: any PDU on any channel survives the whiten+CRC encode /
	// decode path.
	f := func(pdu []byte, channelSel uint8, aa uint32) bool {
		if len(pdu) > 255 {
			pdu = pdu[:255]
		}
		pkt := &Packet{
			AccessAddress: aa,
			PDU:           pdu,
			Channel:       int(channelSel) % ChannelCount,
			Mode:          LE2M,
			CRCInit:       bitstream.BLEAdvCRCInit,
		}
		bits, err := pkt.AirBits()
		if err != nil {
			return false
		}
		body := bits[(2+4)*8:]
		got, crcOK, err := pkt.ParseAirBits(body, len(pdu))
		return err == nil && crcOK && bytes.Equal(got, pdu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSA2Distribution(t *testing.T) {
	csa, err := NewCSA2(0x8e89bed6, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const events = 37 * 200
	for e := 0; e < events; e++ {
		ch := csa.Channel(uint16(e))
		if !IsDataChannel(ch) {
			t.Fatalf("event %d selected non-data channel %d", e, ch)
		}
		counts[ch]++
	}
	if len(counts) != DataChannelCount {
		t.Fatalf("only %d distinct channels selected, want 37", len(counts))
	}
	for ch, n := range counts {
		if n < events/37/3 || n > events/37*3 {
			t.Errorf("channel %d selected %d times, grossly non-uniform", ch, n)
		}
	}
}

func TestCSA2ChannelMapRestriction(t *testing.T) {
	used := []int{8, 12, 20}
	csa, err := NewCSA2(0xdeadbeef, used)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 500; e++ {
		ch := csa.Channel(uint16(e))
		if ch != 8 && ch != 12 && ch != 20 {
			t.Fatalf("event %d selected channel %d outside the map", e, ch)
		}
	}
}

func TestCSA2Deterministic(t *testing.T) {
	a, _ := NewCSA2(0x11223344, nil)
	b, _ := NewCSA2(0x11223344, nil)
	for e := 0; e < 100; e++ {
		if a.Channel(uint16(e)) != b.Channel(uint16(e)) {
			t.Fatal("CSA#2 is not deterministic")
		}
	}
}

func TestCSA2InvalidMap(t *testing.T) {
	if _, err := NewCSA2(1, []int{37}); err == nil {
		t.Error("expected error for advertising channel in map")
	}
}

func TestCSA2EventsUntil(t *testing.T) {
	csa, _ := NewCSA2(0x8e89bed6, nil)
	ctr, ok := csa.EventsUntil(8, 0, 500)
	if !ok {
		t.Fatal("channel 8 never selected in 500 events")
	}
	if csa.Channel(ctr) != 8 {
		t.Errorf("EventsUntil returned counter %d which selects %d", ctr, csa.Channel(ctr))
	}
	if _, ok := csa.EventsUntil(8, 0, 1); ok && csa.Channel(0) != 8 {
		t.Error("EventsUntil(limit=1) claimed success incorrectly")
	}
}

func TestPermIsInvolution(t *testing.T) {
	for _, v := range []uint16{0x0000, 0xffff, 0x1234, 0xa5c3} {
		if perm(perm(v)) != v {
			t.Errorf("perm(perm(%#x)) != %#x", v, v)
		}
	}
	if perm(0x0180) != 0x8001 {
		t.Errorf("perm(0x0180) = %#x, want 0x8001", perm(0x0180))
	}
}

func TestAuxAdvIndRoundTrip(t *testing.T) {
	advA := [6]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}
	data := []byte{0xde, 0xad, 0xbe, 0xef, 0x42}
	pdu, err := BuildAuxAdvInd(advA, 3, 0x123, 0x0059, data)
	if err != nil {
		t.Fatal(err)
	}
	gotA, company, gotData, err := ParseAuxAdvInd(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if gotA != advA {
		t.Errorf("AdvA = % x, want % x", gotA, advA)
	}
	if company != 0x0059 {
		t.Errorf("company = %#x, want 0x0059", company)
	}
	if !bytes.Equal(gotData, data) {
		t.Errorf("data = % x, want % x", gotData, data)
	}
}

func TestAuxAdvIndOverheadIs16(t *testing.T) {
	// The paper reports a padding of 16 bytes before the forged frame;
	// the PDU layout must reproduce that exactly.
	data := []byte{0xaa}
	pdu, err := BuildAuxAdvInd([6]byte{}, 0, 0, 0xffff, data)
	if err != nil {
		t.Fatal(err)
	}
	if pdu[AuxAdvIndOverhead] != 0xaa {
		t.Errorf("payload starts at %d, want %d", bytes.IndexByte(pdu, 0xaa), AuxAdvIndOverhead)
	}
	if len(pdu) != AuxAdvIndOverhead+len(data) {
		t.Errorf("PDU length = %d, want %d", len(pdu), AuxAdvIndOverhead+len(data))
	}
}

func TestAuxAdvIndValidation(t *testing.T) {
	if _, err := BuildAuxAdvInd([6]byte{}, 16, 0, 0, nil); err == nil {
		t.Error("expected error for SID > 15")
	}
	if _, err := BuildAuxAdvInd([6]byte{}, 0, 0x1000, 0, nil); err == nil {
		t.Error("expected error for DID > 12 bits")
	}
	if _, err := BuildAuxAdvInd([6]byte{}, 0, 0, 0, make([]byte, 253)); err == nil {
		t.Error("expected error for oversized AD structure")
	}
}

func TestParseAuxAdvIndErrors(t *testing.T) {
	if _, _, _, err := ParseAuxAdvInd(make([]byte, 4)); err == nil {
		t.Error("expected error for short PDU")
	}
	good, _ := BuildAuxAdvInd([6]byte{}, 0, 0, 0, []byte{1, 2})
	bad := append([]byte{}, good...)
	bad[0] = 0x00
	if _, _, _, err := ParseAuxAdvInd(bad); err == nil {
		t.Error("expected error for wrong PDU type")
	}
	bad = append([]byte{}, good...)
	bad[1] = 0xff
	if _, _, _, err := ParseAuxAdvInd(bad); err == nil {
		t.Error("expected error for wrong length field")
	}
	bad = append([]byte{}, good...)
	bad[13] = 0x09
	if _, _, _, err := ParseAuxAdvInd(bad); err == nil {
		t.Error("expected error for non-manufacturer AD type")
	}
	// An AD length below the type octet plus the company ID must be
	// rejected rather than sliced backwards.
	hostile := []byte{0x37, 0x0f, 0x30, 0x39, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x00, 0xff, 0x30, 0x30, 0x30}
	if _, _, _, err := ParseAuxAdvInd(hostile); err == nil {
		t.Error("expected error for AD length below 3")
	}
}

func TestAdvExtIndAuxPtrRoundTrip(t *testing.T) {
	aux := AuxPtr{ChannelIndex: 8, OffsetUsec: 1200, PHY: LE2M}
	pdu, err := BuildAdvExtInd(2, 0x0abc, aux)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAuxPtr(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChannelIndex != 8 {
		t.Errorf("aux channel = %d, want 8", got.ChannelIndex)
	}
	if got.PHY != LE2M {
		t.Errorf("aux PHY = %v, want LE 2M", got.PHY)
	}
	if got.OffsetUsec != 1200 {
		t.Errorf("aux offset = %d, want 1200", got.OffsetUsec)
	}
}

func TestAdvExtIndValidation(t *testing.T) {
	aux := AuxPtr{ChannelIndex: 8, OffsetUsec: 300, PHY: LE2M}
	if _, err := BuildAdvExtInd(16, 0, aux); err == nil {
		t.Error("expected error for SID overflow")
	}
	if _, err := BuildAdvExtInd(0, 0x1000, aux); err == nil {
		t.Error("expected error for DID overflow")
	}
	if _, err := BuildAdvExtInd(0, 0, AuxPtr{ChannelIndex: 37, PHY: LE2M}); err == nil {
		t.Error("expected error for non-data aux channel")
	}
	if _, err := BuildAdvExtInd(0, 0, AuxPtr{ChannelIndex: 8, PHY: ESB2M}); err == nil {
		t.Error("expected error for ESB aux PHY")
	}
	if _, err := DecodeAuxPtr([]byte{1, 2}); err == nil {
		t.Error("expected error for short ADV_EXT_IND")
	}
}

func TestAuxPtrLargeOffsetUnits(t *testing.T) {
	aux := AuxPtr{ChannelIndex: 1, OffsetUsec: 300000, PHY: LE1M}
	pdu, err := BuildAdvExtInd(0, 0, aux)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAuxPtr(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if got.OffsetUsec != 300000 {
		t.Errorf("round-tripped offset = %d, want 300000", got.OffsetUsec)
	}
}
