package attack

import (
	"testing"

	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
	vsim "wazabee/internal/zigbee/sim"
)

// grants records the short addresses the coordinator hands out in
// successful association responses, retransmissions counted once.
func grants(sim *zigbee.Simulation) *[]uint16 {
	var granted []uint16
	seen := map[uint8]bool{}
	sim.Network.Tap(zigbee.DefaultChannel, func(fc vsim.FrameCapture) {
		if fc.Kind != "assoc_response" || fc.Src != zigbee.CoordinatorNode {
			return
		}
		f, err := ieee802154.ParseMACFrame(fc.PSDU)
		if err != nil || seen[f.Seq] {
			return
		}
		seen[f.Seq] = true
		if assigned, status, err := ieee802154.ParseAssociationResponse(f.Payload); err == nil && status == ieee802154.AssocStatusSuccess {
			granted = append(granted, assigned)
		}
	})
	return &granted
}

func TestJoinNetworkWhenPermitted(t *testing.T) {
	sim := newSim(t, 71)
	sim.Network.SetPermitJoin(zigbee.CoordinatorNode, true)
	granted := grants(sim)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}

	addr, err := tracker.JoinNetwork(info)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || addr == 0xffff || addr == 0xfffe {
		t.Errorf("assigned address = %#04x", addr)
	}
	if len(*granted) != 1 || (*granted)[0] != addr {
		t.Errorf("coordinator granted %v", *granted)
	}

	// The infiltrated node can now report as itself.
	if err := tracker.SpoofData(info, addr, 777); err != nil {
		t.Fatal(err)
	}
	last, ok := lastReading(sim)
	if !ok || last.Src != addr || last.Value != 777 {
		t.Errorf("reading from joined node = %+v", last)
	}
}

func TestJoinNetworkDenied(t *testing.T) {
	sim := newSim(t, 72)
	// The coordinator is closed to joining by default: a locked-down
	// network.
	granted := grants(sim)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	if _, err := tracker.JoinNetwork(info); err == nil {
		t.Error("association succeeded on a network with joining disabled")
	}
	if len(*granted) != 0 {
		t.Errorf("denied join still granted %v", *granted)
	}
	if _, err := tracker.JoinNetwork(nil); err == nil {
		t.Error("expected error for nil info")
	}
}

func TestJoinNetworkAssignsDistinctAddresses(t *testing.T) {
	sim := newSim(t, 73)
	sim.Network.SetPermitJoin(zigbee.CoordinatorNode, true)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}

	a := newTracker(t, sim)
	addr1, err := a.JoinNetwork(info)
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := a.JoinNetwork(info)
	if err != nil {
		t.Fatal(err)
	}
	if addr1 == addr2 {
		t.Errorf("both joins got %#04x", addr1)
	}
}
