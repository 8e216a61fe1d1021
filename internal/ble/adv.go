package ble

import (
	"encoding/binary"
	"fmt"
)

// Extended advertising PDU construction (Bluetooth 5 "Advertising
// Extensions"). Scenario A transmits attacker-chosen bytes inside the
// AdvData of an AUX_ADV_IND on a secondary (data) channel at LE 2M, which
// is the only way an unprivileged application can place a large controlled
// payload on an arbitrary data channel.

// PDUTypeAdvExt is the advertising PDU type shared by ADV_EXT_IND and
// AUX_ADV_IND.
const PDUTypeAdvExt = 0x07

// ADTypeManufacturer is the AD structure type for manufacturer-specific
// data, the container scenario A uses for the forged frame.
const ADTypeManufacturer = 0xff

// AuxAdvIndOverhead is the number of PDU bytes before the
// manufacturer-specific payload in the AUX_ADV_IND built here: 2 (header)
// + 1 (ext header length/AdvMode) + 1 (ext header flags) + 6 (AdvA) + 2
// (ADI) + 1 (AD length) + 1 (AD type) + 2 (company ID) = 16, matching the
// "padding size of 16 bytes" reported in the paper.
const AuxAdvIndOverhead = 16

// extended header flag bits.
const (
	extFlagAdvA   = 1 << 0
	extFlagADI    = 1 << 3
	extFlagAuxPtr = 1 << 4
)

// AuxPtr describes where the auxiliary advertisement will be transmitted.
type AuxPtr struct {
	// ChannelIndex is the secondary advertising channel (0..36).
	ChannelIndex int
	// OffsetUsec is the time from the start of the ADV_EXT_IND to the
	// start of the AUX_ADV_IND.
	OffsetUsec int
	// PHY is the secondary PHY (LE1M or LE2M).
	PHY Mode
}

// BuildAdvExtInd builds the primary-channel ADV_EXT_IND pointing at the
// auxiliary packet. It carries no host data, only the ADI and AuxPtr.
func BuildAdvExtInd(sid uint8, did uint16, aux AuxPtr) ([]byte, error) {
	if !IsDataChannel(aux.ChannelIndex) {
		return nil, fmt.Errorf("ble: aux channel %d is not a data channel", aux.ChannelIndex)
	}
	if sid > 0x0f {
		return nil, fmt.Errorf("ble: advertising SID %d exceeds 4 bits", sid)
	}
	if did > 0x0fff {
		return nil, fmt.Errorf("ble: advertising DID %#x exceeds 12 bits", did)
	}

	payload := make([]byte, 0, 7)
	// Extended header length (6 bits) | AdvMode (2 bits, 00 =
	// non-connectable non-scannable).
	payload = append(payload, byte(6)) // flags + ADI(2) + AuxPtr(3)
	payload = append(payload, extFlagADI|extFlagAuxPtr)
	payload = binary.LittleEndian.AppendUint16(payload, did|uint16(sid)<<12)
	auxBytes, err := encodeAuxPtr(aux)
	if err != nil {
		return nil, err
	}
	payload = append(payload, auxBytes...)

	header := []byte{PDUTypeAdvExt, byte(len(payload))}
	return append(header, payload...), nil
}

// BuildAuxAdvInd builds the secondary-channel AUX_ADV_IND whose AdvData is
// a single manufacturer-specific AD structure wrapping data. The data
// starts exactly AuxAdvIndOverhead bytes into the PDU.
func BuildAuxAdvInd(advA [6]byte, sid uint8, did uint16, companyID uint16, data []byte) ([]byte, error) {
	if sid > 0x0f {
		return nil, fmt.Errorf("ble: advertising SID %d exceeds 4 bits", sid)
	}
	if did > 0x0fff {
		return nil, fmt.Errorf("ble: advertising DID %#x exceeds 12 bits", did)
	}
	// AD length byte covers type + company ID + data and must fit one
	// byte; the PDU length must fit its 8-bit field too.
	adLen := 1 + 2 + len(data)
	if adLen > 0xff {
		return nil, fmt.Errorf("ble: AD structure length %d exceeds 255", adLen)
	}

	payload := make([]byte, 0, AuxAdvIndOverhead-2+len(data))
	payload = append(payload, byte(9)) // ext header: flags + AdvA(6) + ADI(2)
	payload = append(payload, extFlagAdvA|extFlagADI)
	payload = append(payload, advA[:]...)
	payload = binary.LittleEndian.AppendUint16(payload, did|uint16(sid)<<12)
	payload = append(payload, byte(adLen), ADTypeManufacturer)
	payload = binary.LittleEndian.AppendUint16(payload, companyID)
	payload = append(payload, data...)

	if len(payload) > 0xff {
		return nil, fmt.Errorf("ble: AUX_ADV_IND payload %d exceeds 255 bytes", len(payload))
	}
	header := []byte{PDUTypeAdvExt, byte(len(payload))}
	return append(header, payload...), nil
}

// ParseAuxAdvInd extracts the manufacturer-specific data from an
// AUX_ADV_IND built by BuildAuxAdvInd.
func ParseAuxAdvInd(pdu []byte) (advA [6]byte, companyID uint16, data []byte, err error) {
	if len(pdu) < AuxAdvIndOverhead {
		return advA, 0, nil, fmt.Errorf("ble: AUX_ADV_IND too short (%d bytes)", len(pdu))
	}
	if pdu[0]&0x0f != PDUTypeAdvExt {
		return advA, 0, nil, fmt.Errorf("ble: PDU type %#x is not ADV_EXT", pdu[0]&0x0f)
	}
	if int(pdu[1]) != len(pdu)-2 {
		return advA, 0, nil, fmt.Errorf("ble: PDU length field %d does not match %d payload bytes", pdu[1], len(pdu)-2)
	}
	if pdu[3]&extFlagAdvA == 0 || pdu[3]&extFlagADI == 0 {
		return advA, 0, nil, fmt.Errorf("ble: missing AdvA/ADI in extended header")
	}
	copy(advA[:], pdu[4:10])
	adLen := int(pdu[12])
	if adLen < 3 {
		// The AD structure must at least hold its type and company ID.
		return advA, 0, nil, fmt.Errorf("ble: AD length %d below the 3-byte manufacturer header", adLen)
	}
	if pdu[13] != ADTypeManufacturer {
		return advA, 0, nil, fmt.Errorf("ble: AD type %#x is not manufacturer data", pdu[13])
	}
	if 12+1+adLen > len(pdu) {
		return advA, 0, nil, fmt.Errorf("ble: AD structure overruns PDU")
	}
	companyID = binary.LittleEndian.Uint16(pdu[14:16])
	data = append([]byte{}, pdu[16:12+1+adLen]...)
	return advA, companyID, data, nil
}

func encodeAuxPtr(aux AuxPtr) ([]byte, error) {
	if aux.PHY != LE1M && aux.PHY != LE2M {
		return nil, fmt.Errorf("ble: aux PHY %v unsupported", aux.PHY)
	}
	// Offset units: 30 µs below 245700 µs, else 300 µs.
	units := 30
	unitsBit := 0
	if aux.OffsetUsec >= 245700 {
		units = 300
		unitsBit = 1
	}
	offset := aux.OffsetUsec / units
	if offset > 0x1fff {
		return nil, fmt.Errorf("ble: aux offset %d µs out of range", aux.OffsetUsec)
	}
	phyBits := 0 // LE 1M
	if aux.PHY == LE2M {
		phyBits = 1
	}
	b0 := byte(aux.ChannelIndex) | byte(unitsBit)<<7
	b1 := byte(offset & 0xff)
	b2 := byte(offset>>8) | byte(phyBits)<<5
	return []byte{b0, b1, b2}, nil
}

// DecodeAuxPtr parses the three AuxPtr bytes of an ADV_EXT_IND built by
// BuildAdvExtInd (it appears at payload offset 4, PDU offset 6).
func DecodeAuxPtr(pdu []byte) (AuxPtr, error) {
	if len(pdu) < 9 {
		return AuxPtr{}, fmt.Errorf("ble: ADV_EXT_IND too short (%d bytes)", len(pdu))
	}
	if pdu[0]&0x0f != PDUTypeAdvExt {
		return AuxPtr{}, fmt.Errorf("ble: PDU type %#x is not ADV_EXT", pdu[0]&0x0f)
	}
	if pdu[3]&extFlagAuxPtr == 0 {
		return AuxPtr{}, fmt.Errorf("ble: no AuxPtr present")
	}
	raw := pdu[6:9]
	units := 30
	if raw[0]>>7 == 1 {
		units = 300
	}
	offset := (int(raw[1]) | int(raw[2]&0x1f)<<8) * units
	phy := LE1M
	if raw[2]>>5 == 1 {
		phy = LE2M
	}
	return AuxPtr{
		ChannelIndex: int(raw[0] & 0x3f),
		OffsetUsec:   offset,
		PHY:          phy,
	}, nil
}
