package sim

import (
	"strings"
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestStarNetworkForms(t *testing.T) {
	nw, err := New(Star(20), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(30 * time.Second)
	s := nw.Stats()
	if s.Joined != 21 {
		t.Fatalf("joined = %d, want 21", s.Joined)
	}
	if s.Readings == 0 {
		t.Fatal("coordinator accepted no readings")
	}
	if s.Beacons == 0 || s.Acks == 0 {
		t.Fatalf("beacons = %d acks = %d, want both > 0", s.Beacons, s.Acks)
	}
	// Short addresses are unique across the PAN.
	seen := map[uint16]int{}
	for i := 0; i < 21; i++ {
		info := nw.Node(i)
		if !info.Joined {
			t.Fatalf("node %d not joined", i)
		}
		if prev, dup := seen[info.Short]; dup {
			t.Fatalf("nodes %d and %d share short address %#04x", prev, i, info.Short)
		}
		seen[info.Short] = i
	}
	if nw.Node(0).Short != 0x0000 {
		t.Fatalf("coordinator short = %#04x, want 0x0000", nw.Node(0).Short)
	}
}

func TestTreeNetworkForwardsThroughRouters(t *testing.T) {
	nw, err := New(Tree(2, 4), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(40 * time.Second)
	s := nw.Stats()
	if s.Joined != s.Nodes {
		t.Fatalf("joined = %d/%d", s.Joined, s.Nodes)
	}
	if s.Forwarded == 0 {
		t.Fatal("routers forwarded nothing")
	}
	if s.Readings == 0 {
		t.Fatal("no readings reached the coordinator")
	}
}

func TestPANConflictResolution(t *testing.T) {
	// Two coordinators boot on the same (channel, PAN): beacons cross,
	// the higher extended address rebinds, children follow their parent.
	topo := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 0, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 1, Channel: 14, PAN: 0x1234},
	}}
	nw, err := New(topo, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(30 * time.Second)
	s := nw.Stats()
	if s.PANConflicts == 0 {
		t.Fatal("no PAN conflict detected")
	}
	c0, c1 := nw.Node(0), nw.Node(1)
	if c0.PAN == c1.PAN {
		t.Fatalf("conflict unresolved: both coordinators on PAN %#04x", c0.PAN)
	}
	if c0.PAN != 0x1234 {
		t.Fatalf("lower-ext coordinator moved to %#04x; the higher extended address should rebind", c0.PAN)
	}
	if got := nw.Node(3).PAN; got != c1.PAN {
		t.Fatalf("child of rebound coordinator on PAN %#04x, parent on %#04x", got, c1.PAN)
	}
	if got := nw.Node(2).PAN; got != c0.PAN {
		t.Fatalf("child of staying coordinator on PAN %#04x, parent on %#04x", got, c0.PAN)
	}
}

func TestMultiChannelCoexistence(t *testing.T) {
	// Two PANs on different channels never exchange or corrupt frames.
	topo := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1111},
		{Role: RoleCoordinator, Parent: -1, Channel: 20, PAN: 0x2222},
		{Role: RoleEndDevice, Parent: 0, Channel: 14, PAN: 0x1111},
		{Role: RoleEndDevice, Parent: 1, Channel: 20, PAN: 0x2222},
	}}
	nw, err := New(topo, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var on14, on20 uint64
	nw.Tap(14, func(fc FrameCapture) {
		on14++
		if fc.Src == 1 || fc.Src == 3 {
			t.Errorf("channel-20 node %d captured on channel 14", fc.Src)
		}
	})
	nw.Tap(20, func(fc FrameCapture) { on20++ })
	nw.Run(20 * time.Second)
	s := nw.Stats()
	if s.Joined != 4 {
		t.Fatalf("joined = %d, want 4", s.Joined)
	}
	if s.PANConflicts != 0 {
		t.Fatal("cross-channel PANs reported a conflict")
	}
	if on14 == 0 || on20 == 0 {
		t.Fatalf("captures: ch14=%d ch20=%d, want both > 0", on14, on20)
	}
	if on14+on20 != s.Frames {
		t.Fatalf("tap total %d != frames %d", on14+on20, s.Frames)
	}
}

func TestLossyLinksEraseFrames(t *testing.T) {
	// Near the receiver sensitivity cliff the erasure model must bite
	// and the MAC must keep the mesh alive through retries.
	nw, err := New(Star(5), Config{Seed: 9, SNRdB: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(60 * time.Second)
	s := nw.Stats()
	if s.Erasures == 0 {
		t.Fatal("no erasures at 2 dB SNR")
	}
	if s.Readings == 0 {
		t.Fatal("no readings survived retries at 2 dB SNR")
	}
}

func TestObserverStreamsCaptures(t *testing.T) {
	nw, err := New(Star(3), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := nw.Observe(DefaultChannel, 4096)
	done := make(chan uint64)
	go func() {
		var count uint64
		var lastSeq uint64
		for fc := range o.C() {
			count++
			if fc.Seq <= lastSeq {
				t.Errorf("capture seq %d not strictly increasing after %d", fc.Seq, lastSeq)
				break
			}
			lastSeq = fc.Seq
		}
		done <- count
	}()
	nw.Run(20 * time.Second)
	nw.CloseObservers()
	count := <-done
	if count != nw.Stats().Frames {
		t.Fatalf("observer saw %d captures, network sent %d frames", count, nw.Stats().Frames)
	}
}

func TestRegisterHealthDegradesOnStalledObserver(t *testing.T) {
	nw, err := New(Star(3), Config{Seed: 1, stallAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := obs.NewHealth(reg)
	nw.RegisterHealth(h)

	if snap := h.Check(); snap.Status != "ok" {
		t.Fatalf("initial status = %s, want ok", snap.Status)
	}

	// One-slot observer nobody drains: the event loop blocks on the
	// second capture send.
	nw.Observe(DefaultChannel, 1)
	ran := make(chan struct{})
	go func() {
		nw.Run(20 * time.Second)
		close(ran)
	}()
	deadline := time.After(5 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		snap := h.Check()
		snap = h.Check() // probe pushes; pushed state lands next evaluation
		var sim obs.ComponentHealth
		for _, c := range snap.Components {
			if c.Name == "sim" {
				sim = c
			}
		}
		if sim.Status == "degraded" {
			if !strings.Contains(sim.Detail, "stalled") {
				t.Fatalf("degraded detail = %q, want mention of a stall", sim.Detail)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("health never degraded while an observer send was blocked")
		default:
		}
	}

	// Drain the stuck observer so the run can finish.
	go func() {
		for _, list := range nw.observers {
			for _, o := range list {
				for range o.C() {
				}
			}
		}
	}()
	<-ran
	nw.CloseObservers() // lets the draining goroutine exit
	if snap := h.Check(); snap.Status != "ok" {
		snap = h.Check()
		if snap.Status != "ok" {
			t.Fatalf("status after drain = %s, want ok", snap.Status)
		}
	}
}

// TestStaticShortAddresses covers NodeSpec.Short: statically addressed
// nodes start joined under their address, the allocator never hands that
// address out, and the topology rejects reserved addresses and static
// nodes below a parent that still has to associate.
func TestStaticShortAddresses(t *testing.T) {
	topo := Star(2)
	topo.Nodes[0].Short = 0x0042
	topo.Nodes[1].Short = 0x0001
	nw, err := New(topo, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c, s := nw.Node(0), nw.Node(1); !c.Joined || c.Short != 0x0042 || !s.Joined || s.Short != 0x0001 {
		t.Fatalf("static nodes at t=0: %+v, %+v", c, s)
	}
	if nw.Node(2).Joined {
		t.Fatal("unaddressed end device joined before associating")
	}
	nw.Run(10 * time.Second)
	if n := nw.Node(2); !n.Joined || n.Short == 0x0001 {
		t.Errorf("associated node: %+v, want joined with a free address", n)
	}
	if got := nw.Stats().Joins; got != 1 {
		t.Errorf("Joins = %d, want 1 (static nodes do not associate)", got)
	}

	tree := Tree(2, 1)
	tree.Nodes[2].Short = 5
	if err := tree.Validate(); err == nil {
		t.Error("static address below an associating router accepted")
	}
	star := Star(1)
	star.Nodes[1].Short = ieee802154.NoShortAddress
	if err := star.Validate(); err == nil {
		t.Error("reserved static address accepted")
	}
}

// TestClosedCoordinatorDeniesJoin: a coordinator closed with
// SetPermitJoin still answers the scan, but denies the association, so
// the joiner keeps rescanning; reopening it lets the joiner in.
func TestClosedCoordinatorDeniesJoin(t *testing.T) {
	nw, err := New(Star(1), Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetPermitJoin(0, false)
	denied := 0
	nw.Tap(DefaultChannel, func(fc FrameCapture) {
		f, err := ieee802154.ParseMACFrame(fc.PSDU)
		if err != nil || fc.Kind != "assoc_response" {
			return
		}
		if _, status, err := ieee802154.ParseAssociationResponse(f.Payload); err == nil && status == ieee802154.AssocStatusDenied {
			denied++
		}
	})
	nw.Run(10 * time.Second)
	if nw.Node(1).Joined || denied == 0 {
		t.Fatalf("closed coordinator: joined=%v after %d denials", nw.Node(1).Joined, denied)
	}
	nw.SetPermitJoin(0, true)
	nw.Run(20 * time.Second)
	if !nw.Node(1).Joined {
		t.Error("joiner still out after the coordinator reopened")
	}
}
