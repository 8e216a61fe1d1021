package attack

import (
	"testing"

	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

// TestScenarioBAgainstSecuredNetwork demonstrates the section VII
// cryptographic counter-measure: on a network using CCM* link-layer
// security, the WazaBee attacker can still scan (beacons are
// unauthenticated) and still learn addresses by eavesdropping (MAC
// headers are cleartext), but its forged AT command and spoofed readings
// are dropped.
func TestScenarioBAgainstSecuredNetwork(t *testing.T) {
	sim := newSim(t, 31)
	if err := sim.Secure([]byte("sixteen byte key"), ieee802154.SecEncMIC64); err != nil {
		t.Fatal(err)
	}
	tracker := newTracker(t, sim)

	// Reconnaissance still works.
	info, err := tracker.ActiveScan(ieee802154.Channels())
	if err != nil {
		t.Fatalf("scan should still work on a secured network: %v", err)
	}
	sensor, err := tracker.Eavesdrop(info, 5)
	if err != nil {
		t.Fatalf("eavesdropping MAC headers should still work: %v", err)
	}
	if sensor != zigbee.DefaultSensor {
		t.Errorf("sensor address = %#04x", sensor)
	}

	// The channel-change injection is rejected: the sensor never
	// applies it and never answers.
	if err := tracker.InjectChannelChange(info, sensor, 25); err == nil {
		t.Error("forged AT command succeeded against a secured sensor")
	}
	if !sim.Network.Node(zigbee.SensorNode).Joined {
		t.Error("secured sensor left the network")
	}

	// Spoofed readings are rejected: no acknowledgement, nothing on the
	// display beyond the sensor's own (sealed) reports.
	before := len(sim.Network.Display(zigbee.CoordinatorNode))
	if err := tracker.SpoofData(info, sensor, 6666); err == nil {
		t.Error("spoofed reading acknowledged by a secured coordinator")
	}
	for _, r := range sim.Network.Display(zigbee.CoordinatorNode)[before:] {
		if r.Value == 6666 {
			t.Error("forged value reached the secured coordinator's display")
		}
	}
}

// TestSecuredNetworkStillOperates confirms the counter-measure does not
// break the legitimate link: sealed readings keep flowing.
func TestSecuredNetworkStillOperates(t *testing.T) {
	sim := newSim(t, 32)
	if err := sim.Secure([]byte("sixteen byte key"), ieee802154.SecEncMIC32); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(zigbee.DefaultChannel); err != nil {
			t.Fatal(err)
		}
	}
	if len(sim.Network.Display(zigbee.CoordinatorNode)) != 3 {
		t.Errorf("secured network delivered %d/3 readings", len(sim.Network.Display(zigbee.CoordinatorNode)))
	}
}
