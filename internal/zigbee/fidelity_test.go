package zigbee

import (
	"testing"

	vsim "wazabee/internal/zigbee/sim"
)

// TestSimulationFidelityDeterministic pins the victim network's seed
// discipline on the mesh's frame tier: mid-waterfall, where readings
// are lost, two same-seed simulations record identical display logs.
func TestSimulationFidelityDeterministic(t *testing.T) {
	run := func() []vsim.Reading {
		sim, err := NewSimulation(7, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := sim.Step(DefaultChannel); err != nil {
				t.Fatal(err)
			}
		}
		return sim.Network.Display(CoordinatorNode)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("reading counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reading %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 || len(a) >= 40 {
		t.Errorf("%d of 40 sensor frames displayed at 3 dB, want losses but not silence", len(a))
	}
}
