package sim

import (
	"testing"
	"time"

	"wazabee/internal/ieee802154"
)

func TestNewIntruderValidation(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.NewIntruder(10); err == nil {
		t.Error("channel 10 (below the 802.15.4 band) accepted")
	}
	if _, err := nw.NewIntruder(27); err == nil {
		t.Error("channel 27 (above the 802.15.4 band) accepted")
	}
	if _, err := nw.NewIntruder(DefaultChannel); err != nil {
		t.Errorf("valid channel rejected: %v", err)
	}
}

func TestIntruderInjectionCounted(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	// Let the mesh form, then inject a spoofed reading at the
	// coordinator from a fake source address.
	nw.Run(10 * time.Second)
	coord := nw.Node(0)
	frame := ieee802154.NewDataFrame(1, coord.PAN, coord.Short, 0x7777,
		[]byte{0x77, 1, 2, 0}, true)
	if err := intr.Transmit(0, frame, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(11 * time.Second)
	stats := nw.Stats()
	if stats.Injected != 1 {
		t.Errorf("Injected = %d, want 1", stats.Injected)
	}
	if stats.InjectedDelivered != 1 {
		t.Errorf("InjectedDelivered = %d, want 1", stats.InjectedDelivered)
	}
}

func TestIntruderChannelMigrationDetaches(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	victim := nw.Node(1)
	if !victim.Joined {
		t.Fatal("victim did not associate during warmup")
	}
	coord := nw.Node(0)
	// The forged remote AT retune, spoofing the coordinator as source.
	frame := ieee802154.NewDataFrame(9, victim.PAN, victim.Short, coord.Short,
		[]byte{RemoteATRequest, 9, 'C', 'H', 26}, true)
	if err := intr.Transmit(1, frame, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(11 * time.Second)
	if nw.Node(1).Joined {
		t.Error("victim still joined after forged retune")
	}
	if got := nw.Stats().ChannelMigrations; got != 1 {
		t.Errorf("ChannelMigrations = %d, want 1", got)
	}
}

func TestRemoteChannelChangeParsing(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		ok      bool
		channel int
	}{
		{"valid", []byte{RemoteATRequest, 3, 'C', 'H', 20}, true, 20},
		{"wrong frame type", []byte{0x10, 3, 'C', 'H', 20}, false, 0},
		{"wrong command", []byte{RemoteATRequest, 3, 'I', 'D', 20}, false, 0},
		{"short", []byte{RemoteATRequest, 3, 'C', 'H'}, false, 0},
		{"long", []byte{RemoteATRequest, 3, 'C', 'H', 20, 0}, false, 0},
		{"empty", nil, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch, frameID, ok := remoteChannelChange(tc.payload)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && (ch != tc.channel || frameID != 3) {
				t.Errorf("parsed (channel %d, frameID %d), want (%d, 3)", ch, frameID, tc.channel)
			}
		})
	}
}

func TestIntruderDoesNotPerturbCleanRun(t *testing.T) {
	// Building an intruder that never transmits must leave the run
	// byte-identical to an intruder-free one — the guards in the MAC
	// hot path are no-ops until a frame is actually forged.
	digest := func(withIntruder bool) string {
		nw, err := New(Star(3), Config{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewDigestRecorder()
		nw.Tap(DefaultChannel, rec.Record)
		if withIntruder {
			if _, err := nw.NewIntruder(DefaultChannel); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(20 * time.Second)
		return rec.Sum()
	}
	if a, b := digest(false), digest(true); a != b {
		t.Errorf("idle intruder perturbed the run: %s vs %s", a, b)
	}
}

// TestIntruderForgedAssociationResponse: an association response from
// outside the topology has no sender to adopt as parent; the joiner
// ignores it, as it ignores forged beacons, instead of indexing node -1.
func TestIntruderForgedAssociationResponse(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	frame := ieee802154.NewAssociationResponse(1, DefaultPAN, ieee802154.NoShortAddress, 5, ieee802154.AssocStatusSuccess)
	if err := intr.Transmit(1, frame, false); err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	if got := nw.Node(1); !got.Joined || got.Short == 5 {
		t.Errorf("victim after forged response: %+v, want joined through the coordinator", got)
	}
}
