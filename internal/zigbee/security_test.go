package zigbee

import (
	"bytes"
	"testing"

	"wazabee/internal/ieee802154"
	vsim "wazabee/internal/zigbee/sim"
)

var testNetworkKey = []byte("sixteen byte key")

func securedSim(t *testing.T, seed int64) *Simulation {
	t.Helper()
	sim := newTestSim(t, seed)
	if err := sim.Secure(testNetworkKey, ieee802154.SecEncMIC64); err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestSecuredSensorToCoordinator(t *testing.T) {
	sim := securedSim(t, 11)
	capture, err := sim.Step(DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := sim.PHY.Demodulate(capture)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.Security {
		t.Fatal("secured sensor did not set the security bit")
	}
	if bytes.Contains(frame.Payload, vsim.ReadingPayload(1, 0)) {
		t.Error("secured payload carries the cleartext reading")
	}
	if d := sim.Network.Display(CoordinatorNode); len(d) != 1 || d[0].Value != 1 {
		t.Errorf("secured reading not recorded: %+v", d)
	}
	sim.Network.Run(sim.Network.Now() + vsim.ReplyWindow)
	if acks := sim.Network.Stats().Acks; acks != 1 {
		t.Errorf("secured data frame acknowledged %d times, want 1", acks)
	}
}

func TestSecuredCoordinatorDropsForgedData(t *testing.T) {
	sim := securedSim(t, 12)
	// The WazaBee attacker forges a cleartext reading (no key).
	forged := ieee802154.NewDataFrame(9, DefaultPAN, DefaultCoordinator, DefaultSensor, vsim.ReadingPayload(6666, 0), true)
	if reply := exchange(t, sim, forged); reply != nil {
		t.Errorf("unauthenticated forged reading answered: %+v", reply)
	}
	// Even with the security bit set but a garbage payload.
	forged.Security = true
	if reply := exchange(t, sim, forged); reply != nil {
		t.Errorf("forged secured-looking reading answered: %+v", reply)
	}
	for _, r := range sim.Network.Display(CoordinatorNode) {
		if r.Value == 6666 {
			t.Error("forged reading displayed on a secured PAN")
		}
	}
}

func TestSecuredSensorDropsForgedATCommand(t *testing.T) {
	sim := securedSim(t, 13)
	if reply := exchange(t, sim, atCommand(t, 1, "CH", 20)); reply != nil {
		t.Errorf("unauthenticated AT command answered: %+v", reply)
	}
	if !sim.Network.Node(SensorNode).Joined {
		t.Error("unauthenticated AT command applied — the DoS countermeasure failed")
	}
}

func TestSecuredSensorAcceptsAuthenticATCommand(t *testing.T) {
	sim := securedSim(t, 14)
	// A device holding the network key seals its command.
	holder, err := ieee802154.NewSecurityContext(testNetworkKey, vsim.ExtAddrBase|0xff, ieee802154.SecEncMIC64)
	if err != nil {
		t.Fatal(err)
	}
	frame := atCommand(t, 2, "CH", 20)
	if frame.Payload, err = holder.Seal(frame.Payload); err != nil {
		t.Fatal(err)
	}
	frame.Security = true
	reply := exchange(t, sim, frame)
	if reply == nil || !reply.Security {
		t.Fatalf("AT response missing or unsecured: %+v", reply)
	}
	if sim.Network.Node(SensorNode).Joined {
		t.Error("authentic AT command not applied")
	}
	opened, err := holder.Open(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseATResponse(opened)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 0 {
		t.Errorf("AT response status = %d", resp.Status)
	}
}

func TestSimulationSecure(t *testing.T) {
	sim, err := NewSimulation(21, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Secure(testNetworkKey, ieee802154.SecEncMIC32); err != nil {
		t.Fatal(err)
	}
	// The secured network still operates: the coordinator records the
	// sensor's sealed readings.
	if _, err := sim.Step(DefaultChannel); err != nil {
		t.Fatal(err)
	}
	if len(sim.Network.Display(CoordinatorNode)) != 1 {
		t.Fatalf("secured network recorded %d readings", len(sim.Network.Display(CoordinatorNode)))
	}
	if err := sim.Secure([]byte("short"), ieee802154.SecEncMIC32); err == nil {
		t.Error("expected error for bad key")
	}
}
