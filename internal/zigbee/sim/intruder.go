package sim

import (
	"fmt"
	"math/rand"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// IntruderSrc is the capture Src of attacker transmissions: an
// out-of-topology index no node ever occupies, so taps and observers can
// separate injected traffic from the mesh's own without deep-parsing
// every PSDU.
const IntruderSrc = -1

// Intruder is an out-of-topology attacker radio bolted onto a running
// mesh: it forges MAC frames and puts them on the victim's air without
// being a node — no CSMA, no queue, no energy ledger of its own. Its
// transmissions occupy the destination's collision domain (they corrupt
// concurrent victim frames and defer victim CCA like any carrier), pass
// through the same calibrated delivery channel, and surface in the
// capture stream with Src = IntruderSrc. Everything the victims do in
// response — acknowledgements, association responses, AT responses,
// retries against injected interference — runs on the ordinary MAC path
// and is charged to the victims' energy accountant, which is exactly
// the asymmetry energy-depletion attacks exploit.
//
// Determinism: the intruder only acts from callbacks scheduled on the
// network's event loop, its delivery draws follow the deliverySeed
// discipline, and its private stream derives from nodeSeed(seed,
// IntruderSrc); same-seed runs with the same attack schedule stay
// bit-identical at any event-batch size.
type Intruder struct {
	nw      *Network
	channel int
	rng     *rand.Rand
}

// NewIntruder attaches an attacker radio to the network on the given
// 802.15.4 channel. Create before Run, like taps and observers.
func (nw *Network) NewIntruder(channel int) (*Intruder, error) {
	f, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return nil, err
	}
	if _, ok := nw.freq[channel]; !ok {
		nw.freq[channel] = f
	}
	return &Intruder{nw: nw, channel: channel, rng: nodeRand(nw.cfg.Seed, IntruderSrc)}, nil
}

// Rand exposes the intruder's private deterministic stream, for attack
// schedules that want jitter without touching any victim stream.
func (in *Intruder) Rand() *rand.Rand { return in.rng }

// Transmit puts a forged frame on the air now, addressed to the node
// with simulator index to. The transmission starts immediately — a real
// attacker gains nothing from listen-before-talk — and lasts the
// frame's on-air duration. It collides with any concurrent transmission
// whose receiver shares the destination cell, and is delivered through
// the network's fidelity tier when the target is tuned to the
// intruder's channel, idle, and the erasure draw passes. Set needAck to
// make the victim spend a transmission acknowledging the forgery.
//
// Call only from the goroutine driving the event loop (between Run
// calls or from scheduled callbacks).
func (in *Intruder) Transmit(to int, frame *ieee802154.MACFrame, needAck bool) error {
	_, err := in.send(frame, needAck, to, nil)
	return err
}

// Deliver puts a forged frame on the air now whose reception the caller
// already decided: every node in to demodulated it (at IQ, say). The
// frame takes Transmit's airtime, collision, deafness, handler and
// energy paths, but draws nothing from the fidelity tier, and each
// recipient's MAC address filter applies. It returns the frame's
// capture Seq, which the victims' replies carry as
// FrameCapture.InReplyTo.
func (in *Intruder) Deliver(frame *ieee802154.MACFrame, needAck bool, to ...int) (uint64, error) {
	if len(to) == 0 {
		return 0, fmt.Errorf("sim: intruder delivery without recipients")
	}
	for _, id := range to[1:] {
		if id < 0 || id >= len(in.nw.nodes) {
			return 0, fmt.Errorf("sim: intruder target %d out of range [0,%d)", id, len(in.nw.nodes))
		}
	}
	return in.send(frame, needAck, to[0], to)
}

// send starts an intruder transmission towards node to. decided, when
// non-nil, lists the nodes whose reception the caller decided.
func (in *Intruder) send(frame *ieee802154.MACFrame, needAck bool, to int, decided []int) (uint64, error) {
	nw := in.nw
	if to < 0 || to >= len(nw.nodes) {
		return 0, fmt.Errorf("sim: intruder target %d out of range [0,%d)", to, len(nw.nodes))
	}
	psdu, err := frame.Encode()
	if err != nil {
		return 0, err
	}
	rx := nw.nodes[to]
	destOwner := to
	if rx.spec.Role == RoleEndDevice {
		destOwner = rx.parentID
	}
	now := nw.sched.Now()
	nw.frameSeq++
	tx := &transmission{
		src:       IntruderSrc,
		channel:   in.channel,
		kind:      intruderKind(frame),
		frame:     frame,
		psdu:      psdu,
		mode:      targetNode,
		to:        to,
		seq:       nw.frameSeq,
		start:     now,
		end:       now + ieee802154.FrameDuration(len(psdu)),
		needAck:   needAck,
		destOwner: destOwner,
	}
	nw.cell(destOwner).add(destOwner, tx)
	nw.noteFrame(tx)
	nw.stats.Injected++
	nw.cInjected.Inc()
	nw.sched.At(tx.end, func() { in.txEnd(tx, decided) })
	return tx.seq, nil
}

// txEnd is the intruder's counterpart of the node transmit-end path:
// take the frame off the air, publish the capture, and deliver it to
// every recipient it survived collision, deafness and — unless the
// caller decided reception — the erasure draw for. The attacker has no
// radio-state ledger, so only receiver-side telemetry is charged.
func (in *Intruder) txEnd(tx *transmission, decided []int) {
	nw := in.nw
	nw.cell(tx.destOwner).remove(tx)
	if tx.collided {
		nw.stats.Collisions++
		nw.cCollisions.Inc()
	}
	nw.publishCapture(tx)
	if tx.collided {
		return
	}
	if decided != nil {
		for _, rxID := range decided {
			if addressed(nw.nodes[rxID], tx.frame) && in.awake(rxID, tx) {
				in.receive(rxID, tx)
			}
		}
		return
	}
	rxID := tx.to
	if nw.nodes[rxID].spec.Channel != tx.channel || !in.awake(rxID, tx) {
		return // a target tuned elsewhere hears nothing
	}
	f := nw.freq[tx.channel]
	outcome, err := nw.ch.Deliver(radio.FrameSpec{
		PSDULen:   len(tx.psdu),
		TxFreqMHz: f,
		RxFreqMHz: f,
		Link:      radio.Link{SNRdB: nw.cfg.SNRdB},
		Seed:      deliverySeed(nw.cfg.Seed, tx.seq, rxID),
	})
	if err != nil {
		panic(err) // the channel was validated at New; a Deliver error is a bug
	}
	if !outcome.Delivered() {
		nw.stats.Erasures++
		nw.cErasures.Inc()
		if t := nw.tel; t != nil {
			t.nodes[rxID].erasures++
			t.link(IntruderSrc, rxID).erasures++
		}
		return
	}
	in.receive(rxID, tx)
}

// awake reports whether the receiver's half-duplex radio was listening
// for the whole frame, counting a deaf miss when it was not.
func (in *Intruder) awake(rxID int, tx *transmission) bool {
	nw := in.nw
	if nw.nodes[rxID].radioBusyUntil <= tx.start {
		return true
	}
	nw.stats.DeafMisses++
	nw.cDeaf.Inc()
	if t := nw.tel; t != nil {
		t.nodes[rxID].deaf++
		t.link(IntruderSrc, rxID).deaf++
	}
	return false
}

// receive hands a received forgery to the victim's MAC, charging the
// demodulation to its receive ledger.
func (in *Intruder) receive(rxID int, tx *transmission) {
	nw := in.nw
	if t := nw.tel; t != nil {
		t.nodes[rxID].rx++
		t.link(IntruderSrc, rxID).delivered++
		t.radioCharge(rxID, nw.sched.Now(), tx.end-tx.start, RadioRX)
	}
	nw.stats.InjectedDelivered++
	nw.cInjectedDelivered.Inc()
	nw.handleFrame(nw.nodes[rxID], tx)
}

// addressed is the MAC destination filter: a frame concerns a node when
// its destination PAN and short address are the node's or broadcast.
func addressed(n *node, f *ieee802154.MACFrame) bool {
	return f.DestMode == ieee802154.AddrShort &&
		(f.DestPAN == n.pan || f.DestPAN == ieee802154.BroadcastPAN) &&
		(f.DestAddr == n.short || f.DestAddr == ieee802154.BroadcastAddr)
}

// intruderKind classifies a forged frame for metrics and capture
// records, mirroring the kinds the MAC path assigns.
func intruderKind(frame *ieee802154.MACFrame) frameKind {
	switch frame.Type {
	case ieee802154.FrameBeacon:
		return kindBeacon
	case ieee802154.FrameAck:
		return kindAck
	case ieee802154.FrameCommand:
		if len(frame.Payload) > 0 {
			switch ieee802154.CommandID(frame.Payload[0]) {
			case ieee802154.CmdAssociationRequest:
				return kindAssocRequest
			case ieee802154.CmdAssociationResponse:
				return kindAssocResponse
			case ieee802154.CmdBeaconRequest:
				return kindBeaconRequest
			}
		}
	}
	return kindData
}

// The XBee remote AT command wire format: a frame-type octet, a frame
// ID, two command letters and the parameter (internal/zigbee's
// ATCommand and ATResponse codecs).
const (
	// RemoteATRequest opens a remote AT command.
	RemoteATRequest = 0x17
	// RemoteATResponse opens its response, which ends in a status octet.
	RemoteATResponse = 0x97
)

// Remote AT response status codes.
const (
	atStatusOK           = 0
	atStatusInvalidParam = 1
	atStatusUnsupported  = 2
)

// remoteChannelChange decodes the remote AT "CH" payload the scenario B
// attack forges: frame type, frame ID, the two command letters and the
// one-octet new channel.
func remoteChannelChange(payload []byte) (newChannel int, frameID byte, ok bool) {
	if len(payload) != 5 || payload[0] != RemoteATRequest {
		return 0, 0, false
	}
	if payload[2] != 'C' || payload[3] != 'H' {
		return 0, 0, false
	}
	return int(payload[4]), payload[1], true
}

// handleRemoteAT executes a remote AT command on the receiving node and
// answers it towards the node's parent. "CH" is the scenario B
// channel-migration denial of service: the node obeys its (spoofed)
// coordinator, answers, then retunes, which detaches it from the PAN —
// nothing on the old channel reaches it again, and it stops reporting.
// Other commands are answered as unsupported. Coordinators ignore
// remote AT commands, as do nodes that are not joined.
func (nw *Network) handleRemoteAT(r *node, tx *transmission, cmd []byte) {
	if r.spec.Role == RoleCoordinator || r.state != stateJoined {
		return
	}
	status, newChannel := byte(atStatusUnsupported), 0
	if ch, _, ok := remoteChannelChange(cmd); ok && ch >= ieee802154.FirstChannel && ch <= ieee802154.LastChannel {
		status, newChannel = atStatusOK, ch
	} else if cmd[2] == 'C' && cmd[3] == 'H' {
		status = atStatusInvalidParam
	}
	frame := r.dataFrame([]byte{RemoteATResponse, cmd[1], cmd[2], cmd[3], status}, false)
	nw.enqueueTx(r, &outgoing{kind: kindData, frame: frame, mode: targetNode, to: r.parentID, answers: answers(tx)})
	if newChannel == 0 || newChannel == r.spec.Channel {
		return
	}
	r.state = stateIdle
	nw.stats.Joined--
	nw.stats.ChannelMigrations++
	nw.cMigrations.Inc()
	nw.noteJoinedGauge()
	nw.flight.Record(obs.FlightEvent{
		Kind: "state", Component: "sim", Frame: -1,
		Detail: fmt.Sprintf("channel migration: node %d retuned %d -> %d by remote AT", r.id, r.spec.Channel, newChannel),
	})
	if t := nw.tel; t != nil && t.trace != nil {
		t.trace.instant(r.id, "channel_migration", nw.sched.Now(), 0)
	}
}
