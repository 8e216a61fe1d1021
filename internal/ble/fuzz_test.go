package ble

import "testing"

// FuzzParseAuxAdvInd feeds arbitrary PDUs to the advertising-extension
// parsers: they must reject hostile input with an error, never panic,
// and whatever ParseAuxAdvInd accepts must rebuild to the same PDU when
// it uses the layout BuildAuxAdvInd writes.
func FuzzParseAuxAdvInd(f *testing.F) {
	good, _ := BuildAuxAdvInd([6]byte{1, 2, 3, 4, 5, 6}, 3, 0x123, 0x0059, []byte{0xde, 0xad})
	f.Add(good)
	ext, _ := BuildAdvExtInd(2, 0x0abc, AuxPtr{ChannelIndex: 8, OffsetUsec: 1200, PHY: LE2M})
	f.Add(ext)
	f.Add([]byte{0x37, 0x0f, 0x30, 0x39, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x00, 0xff, 0x30, 0x30, 0x30})
	f.Fuzz(func(t *testing.T, pdu []byte) {
		_, _ = DecodeAuxPtr(pdu)
		advA, companyID, data, err := ParseAuxAdvInd(pdu)
		if err != nil {
			return
		}
		if len(data) != int(pdu[12])-3 {
			t.Fatalf("data length %d does not match AD length %d", len(data), pdu[12])
		}
		if pdu[2] != 9 || pdu[3] != extFlagAdvA|extFlagADI || int(pdu[12])+13 != len(pdu) {
			return // valid but not BuildAuxAdvInd's exact layout
		}
		adi := uint16(pdu[10]) | uint16(pdu[11])<<8
		rebuilt, err := BuildAuxAdvInd(advA, uint8(adi>>12), adi&0x0fff, companyID, data)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if string(rebuilt[1:]) != string(pdu[1:]) {
			t.Fatalf("rebuilt PDU %x differs from %x", rebuilt, pdu)
		}
	})
}
