package sim

import (
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

// FuzzIntruderFrame injects a fuzzer-chosen MAC frame at a chosen node
// and instant of a small instrumented mesh, through either intruder
// entry point. Whatever the frame, the mesh must not panic, every
// node's radio ledger must sum exactly to the elapsed virtual time, the
// per-node counters must reconcile with the network totals, and two
// same-seed runs must produce the same capture digest.
func FuzzIntruderFrame(f *testing.F) {
	forgedResponse, err := ieee802154.NewAssociationResponse(1, DefaultPAN, ieee802154.NoShortAddress, 5, ieee802154.AssocStatusSuccess).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forgedResponse, uint8(1), uint16(0), false)
	for _, frame := range []*ieee802154.MACFrame{
		ieee802154.NewDataFrame(1, DefaultPAN, 0x0000, 0x0001, ReadingPayload(7, 0), true),
		ieee802154.NewDataFrame(2, DefaultPAN, 0x0001, 0x0000, []byte{RemoteATRequest, 2, 'C', 'H', 20}, false),
		ieee802154.NewBeaconRequest(3),
		ieee802154.NewAssociationRequest(4, DefaultPAN, 0x0000, 0x8e),
	} {
		psdu, err := frame.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(psdu, uint8(0), uint16(3000), true)
	}
	f.Fuzz(func(t *testing.T, psdu []byte, target uint8, atMs uint16, decided bool) {
		frame, err := ieee802154.ParseMACFrame(psdu)
		if err != nil {
			return
		}
		topo := Star(3)
		to := int(target) % len(topo.Nodes)
		at := time.Duration(atMs%8000) * time.Millisecond
		run := func() (*Network, string, bool) {
			nw, err := New(topo, Config{Seed: 9, Telemetry: true, Registry: obs.NewRegistry(), Flight: obs.NewFlight(8)})
			if err != nil {
				t.Fatal(err)
			}
			intr, err := nw.NewIntruder(DefaultChannel)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewDigestRecorder()
			intruderCollided := false
			nw.Tap(DefaultChannel, func(fc FrameCapture) {
				rec.Record(fc)
				intruderCollided = intruderCollided || fc.Src == IntruderSrc && fc.Collided
			})
			nw.Scheduler().At(at, func() {
				if decided {
					_, err = intr.Deliver(frame, frame.AckRequest, to)
				} else {
					err = intr.Transmit(to, frame, frame.AckRequest)
				}
			})
			nw.Run(10 * time.Second)
			if err != nil {
				t.Skip("frame does not re-encode:", err)
			}
			return nw, rec.Sum(), intruderCollided
		}
		nw, digest, intruderCollided := run()
		if _, again, _ := run(); again != digest {
			t.Fatalf("same-seed digests differ: %s vs %s", digest, again)
		}

		stats := nw.Stats()
		var tx, rx, coll, erasures, deaf, readings, joins, delivered uint64
		for _, ns := range nw.NodeStats() {
			var sum time.Duration
			for _, d := range ns.RadioTime {
				sum += d
			}
			if sum != nw.Now() {
				t.Fatalf("node %d: radio durations sum to %v, elapsed %v", ns.ID, sum, nw.Now())
			}
			tx += ns.Tx
			rx += ns.Rx
			coll += ns.Collisions
			erasures += ns.Erasures
			deaf += ns.DeafMisses
			readings += ns.Readings
			joins += ns.Joins
		}
		for _, ls := range nw.LinkStats() {
			delivered += ls.Delivered
		}
		if intruderCollided {
			coll++
		}
		for _, c := range []struct {
			name            string
			nodeSum, global uint64
		}{
			{"tx+injected/frames", tx + stats.Injected, stats.Frames},
			{"collisions", coll, stats.Collisions},
			{"erasures", erasures, stats.Erasures},
			{"deaf misses", deaf, stats.DeafMisses},
			{"readings", readings, stats.Readings},
			{"joins", joins, stats.Joins},
			{"link delivered/rx", delivered, rx},
		} {
			if c.nodeSum != c.global {
				t.Errorf("%s: node sum %d != global %d", c.name, c.nodeSum, c.global)
			}
		}
	})
}
