package zigbee

import (
	"bytes"
	"errors"
	"testing"

	"wazabee/internal/ieee802154"
	vsim "wazabee/internal/zigbee/sim"
)

func TestATCommandRoundTrip(t *testing.T) {
	cmd := &ATCommand{FrameID: 7, Command: "CH", Param: []byte{0x14}}
	payload, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseATCommand(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameID != 7 || got.Command != "CH" || !bytes.Equal(got.Param, []byte{0x14}) {
		t.Errorf("ParseATCommand = %+v", got)
	}
}

func TestATCommandValidation(t *testing.T) {
	if _, err := (&ATCommand{Command: "CHX"}).Encode(); err == nil {
		t.Error("expected error for three-letter command")
	}
	if _, err := ParseATCommand([]byte{0x10, 1, 'C', 'H'}); !errors.Is(err, ErrNotATCommand) {
		t.Error("expected ErrNotATCommand for wrong frame type")
	}
	if _, err := ParseATCommand([]byte{0x17}); !errors.Is(err, ErrNotATCommand) {
		t.Error("expected ErrNotATCommand for truncated payload")
	}
}

func TestATResponseRoundTrip(t *testing.T) {
	resp := &ATResponse{FrameID: 3, Command: "CH", Status: 0}
	payload, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseATResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameID != 3 || got.Command != "CH" || got.Status != 0 {
		t.Errorf("ParseATResponse = %+v", got)
	}
	if _, err := ParseATResponse([]byte{1, 2}); err == nil {
		t.Error("expected error for short payload")
	}
	if _, err := (&ATResponse{Command: "C"}).Encode(); err == nil {
		t.Error("expected error for short command")
	}
}

// TestSensorPayloadRoundTrip pins the Table III reading payload: tag
// octet then the little-endian value, intact through a MAC data frame.
func TestSensorPayloadRoundTrip(t *testing.T) {
	p := SensorPayload(0xbeef)
	if !bytes.Equal(p, []byte{FrameSensorData, 0xef, 0xbe}) {
		t.Errorf("SensorPayload(0xbeef) = % x", p)
	}
	psdu, err := ieee802154.NewDataFrame(1, DefaultPAN, DefaultCoordinator, DefaultSensor, p, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ieee802154.ParseMACFrame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame.Payload, p) {
		t.Errorf("payload after round trip = % x, want % x", frame.Payload, p)
	}
}

func newTestSim(t *testing.T, seed int64) *Simulation {
	t.Helper()
	sim, err := NewSimulation(seed, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// exchange sends frame to the network as an attacker waveform on the
// network's channel and decodes the reply; nil when only noise came
// back.
func exchange(t *testing.T, sim *Simulation, frame *ieee802154.MACFrame) *ieee802154.MACFrame {
	t.Helper()
	psdu, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sim.PHY.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sim.Exchange(sig, DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := sim.PHY.Demodulate(capture)
	if err != nil {
		return nil
	}
	reply, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// atCommand builds the remote AT frame the scenario B attack forges:
// addressed to the sensor, spoofing the coordinator as source.
func atCommand(t *testing.T, frameID byte, command string, param ...byte) *ieee802154.MACFrame {
	t.Helper()
	payload, err := (&ATCommand{FrameID: frameID, Command: command, Param: param}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ieee802154.NewDataFrame(frameID, DefaultPAN, DefaultSensor, DefaultCoordinator, payload, false)
}

// atReply decodes the sensor's AT response.
func atReply(t *testing.T, reply *ieee802154.MACFrame) *ATResponse {
	t.Helper()
	if reply == nil {
		t.Fatal("expected AT response")
	}
	resp, err := ParseATResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSensorPeriodicReadings(t *testing.T) {
	sim := newTestSim(t, 4)
	for i := 0; i < 3; i++ {
		capture, err := sim.Step(DefaultChannel)
		if err != nil {
			t.Fatal(err)
		}
		dem, err := sim.PHY.Demodulate(capture)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
		if err != nil {
			t.Fatal(err)
		}
		if f.DestAddr != DefaultCoordinator || f.SrcAddr != DefaultSensor || f.DestPAN != DefaultPAN {
			t.Errorf("addressing = %+v", f)
		}
		if !f.AckRequest {
			t.Error("sensor data must request acknowledgement")
		}
	}
	display := sim.Network.Display(CoordinatorNode)
	if len(display) != 3 {
		t.Fatalf("display holds %d readings, want 3", len(display))
	}
	for i, r := range display {
		if r.Src != DefaultSensor || r.Value != uint16(i+1) {
			t.Errorf("reading %d = %+v, want value %d from the sensor", i, r, i+1)
		}
		if i > 0 && r.Seq != display[i-1].Seq+1 {
			t.Error("sequence numbers must increment")
		}
	}
}

func TestSensorAppliesChannelChange(t *testing.T) {
	sim := newTestSim(t, 5)
	resp := atReply(t, exchange(t, sim, atCommand(t, 9, "CH", 20)))
	if resp.Status != 0 || resp.FrameID != 9 {
		t.Errorf("AT response = %+v", resp)
	}
	// The retune detaches the sensor from the PAN.
	if sim.Network.Node(SensorNode).Joined {
		t.Error("sensor still joined after the channel change")
	}
	if got := sim.Network.Stats().ChannelMigrations; got != 1 {
		t.Errorf("ChannelMigrations = %d, want 1", got)
	}
}

func TestSensorRejectsBadChannelChange(t *testing.T) {
	sim := newTestSim(t, 6)
	resp := atReply(t, exchange(t, sim, atCommand(t, 1, "CH", 99)))
	if resp.Status == 0 {
		t.Error("invalid parameter must report a non-zero status")
	}
	if !sim.Network.Node(SensorNode).Joined || sim.Network.Stats().ChannelMigrations != 0 {
		t.Error("invalid channel must not be applied")
	}
}

func TestSensorIgnoresUnrelatedFrames(t *testing.T) {
	sim := newTestSim(t, 7)
	other := ieee802154.NewDataFrame(1, DefaultPAN, 0x9999, DefaultCoordinator, []byte{1}, false)
	if reply := exchange(t, sim, other); reply != nil {
		t.Errorf("reply %+v to a frame for another node", reply)
	}
	resp := atReply(t, exchange(t, sim, atCommand(t, 2, "ID")))
	if resp.Status == 0 {
		t.Error("unsupported command must report a non-zero status")
	}
}

func TestCoordinatorRecordsAndAcks(t *testing.T) {
	sim := newTestSim(t, 8)
	frame := ieee802154.NewDataFrame(5, DefaultPAN, DefaultCoordinator, DefaultSensor, vsim.ReadingPayload(321, 0), true)
	reply := exchange(t, sim, frame)
	if reply == nil || reply.Type != ieee802154.FrameAck || reply.Seq != 5 {
		t.Errorf("reply = %+v, want ACK seq 5", reply)
	}
	display := sim.Network.Display(CoordinatorNode)
	if len(display) == 0 || display[len(display)-1] != (vsim.Reading{Src: DefaultSensor, Seq: 5, Value: 321}) {
		t.Errorf("display = %+v", display)
	}
}

func TestCoordinatorAnswersBeaconRequest(t *testing.T) {
	sim := newTestSim(t, 9)
	reply := exchange(t, sim, ieee802154.NewBeaconRequest(1))
	if reply == nil || reply.Type != ieee802154.FrameBeacon {
		t.Fatalf("reply = %+v, want beacon", reply)
	}
	if reply.SrcPAN != DefaultPAN || reply.SrcAddr != DefaultCoordinator {
		t.Errorf("beacon source = %#x/%#x", reply.SrcPAN, reply.SrcAddr)
	}
}

func TestCoordinatorIgnoresForeignTraffic(t *testing.T) {
	sim := newTestSim(t, 10)
	foreign := ieee802154.NewDataFrame(1, 0x9999, DefaultCoordinator, 2, vsim.ReadingPayload(1, 0), true)
	if reply := exchange(t, sim, foreign); reply != nil {
		t.Errorf("coordinator answered a foreign PAN: %+v", reply)
	}
	for _, r := range sim.Network.Display(CoordinatorNode) {
		if r.Src == 2 {
			t.Errorf("foreign reading displayed: %+v", r)
		}
	}
}

func TestSimulationStepDeliversToCoordinatorAndAttacker(t *testing.T) {
	sim, err := NewSimulation(1, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sim.Step(DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinator recorded the reading.
	if len(sim.Network.Display(CoordinatorNode)) != 1 {
		t.Fatalf("coordinator readings = %d, want 1", len(sim.Network.Display(CoordinatorNode)))
	}
	// Attacker's capture contains the frame (legit PHY can decode it).
	dem, err := sim.PHY.Demodulate(capture)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if frame.SrcAddr != DefaultSensor {
		t.Errorf("captured source = %#x, want sensor", frame.SrcAddr)
	}
}

func TestSimulationStepOffChannelHearsNothing(t *testing.T) {
	sim, err := NewSimulation(2, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sim.Capture(20) // sensor is on 14
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.PHY.Demodulate(capture); !errors.Is(err, ieee802154.ErrNoSync) {
		t.Errorf("off-channel capture decoded: %v", err)
	}
}

func TestSimulationExchangeBeaconRequest(t *testing.T) {
	sim, err := NewSimulation(3, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ieee802154.NewBeaconRequest(1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU(req)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sim.PHY.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}

	// On the network's channel the coordinator answers with a beacon.
	reply, err := sim.Exchange(sig, DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := sim.PHY.Demodulate(reply)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != ieee802154.FrameBeacon || frame.SrcPAN != DefaultPAN {
		t.Errorf("reply = %+v, want beacon from PAN 0x1234", frame)
	}

	// On an empty channel nothing answers.
	silent, err := sim.Exchange(sig, 22)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.PHY.Demodulate(silent); !errors.Is(err, ieee802154.ErrNoSync) {
		t.Error("empty channel produced a decodable reply")
	}

	if _, err := sim.Exchange(nil, DefaultChannel); err == nil {
		t.Error("expected error for empty transmission")
	}
	if _, err := sim.Exchange(sig, 99); err == nil {
		t.Error("expected error for invalid channel")
	}
}
