package attack

import (
	"testing"
	"time"

	"wazabee/internal/zigbee"
	vsim "wazabee/internal/zigbee/sim"
)

// TestDepleteEnergyDrainsSensorBattery reads the flood's cost off the
// victim network's energy ledger: over equal spans of virtual time, the
// sensor's radio spends at least five times the receive energy under
// the flood that it spends on routine traffic.
func TestDepleteEnergyDrainsSensorBattery(t *testing.T) {
	sim := newSim(t, 61)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	rxEnergy := func() float64 {
		var rx [vsim.NumRadioStates]time.Duration
		rx[vsim.RadioRX] = sim.Network.NodeStats()[zigbee.SensorNode].RadioTime[vsim.RadioRX]
		return vsim.ProfileCC2652().Microjoules(rx)
	}

	// Baseline: a few reporting periods of acknowledgements and beacons.
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(zigbee.DefaultChannel); err != nil {
			t.Fatal(err)
		}
	}
	span := sim.Network.Now()
	baseline := rxEnergy()
	if baseline <= 0 {
		t.Fatal("reporting periods consumed no receive energy")
	}

	// Attack over the same span of virtual time.
	start := sim.Network.Now()
	if err := tracker.DepleteEnergy(info, zigbee.DefaultSensor, 20); err != nil {
		t.Fatal(err)
	}
	if sim.Network.Now() > start+span {
		t.Fatalf("flood took %v, longer than the %v baseline", sim.Network.Now()-start, span)
	}
	sim.Network.Run(start + span)
	attack := rxEnergy() - baseline
	if attack < 5*baseline {
		t.Errorf("flood RX energy %.1f µJ not dominating baseline %.1f µJ over %v", attack, baseline, span)
	}
}

func TestDepleteEnergyValidation(t *testing.T) {
	sim := newSim(t, 63)
	tracker := newTracker(t, sim)
	if err := tracker.DepleteEnergy(nil, 1, 5); err == nil {
		t.Error("expected error for nil info")
	}
	info := &NetworkInfo{Channel: 14, PAN: 1, Coordinator: 2}
	if err := tracker.DepleteEnergy(info, 1, 0); err == nil {
		t.Error("expected error for zero frames")
	}
}
