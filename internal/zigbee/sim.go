package zigbee

import (
	"fmt"
	"time"

	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	vsim "wazabee/internal/zigbee/sim"
)

// Defaults of the experimental setup in section VI-A.
const (
	DefaultPAN         = vsim.DefaultPAN
	DefaultChannel     = vsim.DefaultChannel
	DefaultCoordinator = 0x0042
	DefaultSensor      = 0x0063
	// ReportInterval is the sensor's reporting period.
	ReportInterval = 2 * time.Second
)

// Indices of the two victim nodes in Simulation.Network.
const (
	CoordinatorNode = 0
	SensorNode      = 1
)

// Simulation is the paper's XBee victim network — sensor 0x0063
// reporting to coordinator 0x0042 on PAN 0x1234, channel 14 — run as a
// pre-formed two-node sim.Network, with an IQ adapter in front of it so
// that an attacker interacts with it purely through waveforms, the way
// the scenario B tracker does over the air. Victim-to-victim traffic
// runs on the mesh's frame tier; every frame the attacker hears is
// modulated with the O-QPSK PHY and every frame it sends is demodulated
// at IQ before a victim MAC sees it.
//
// A Simulation is not safe for concurrent use.
type Simulation struct {
	Medium *radio.Medium
	PHY    *ieee802154.PHY
	// Network is the victim mesh: node CoordinatorNode and node
	// SensorNode. Read node state, the energy ledger and the
	// coordinator's display log through it between calls.
	Network *vsim.Network

	// AttackerLink describes propagation between the attacker and the
	// victims.
	AttackerLink radio.Link

	intruder *vsim.Intruder
	// heard collects the network's transmissions since the last run.
	heard []vsim.FrameCapture
}

// NewSimulation builds the default experimental network over a fresh
// medium: PAN 0x1234, sensor 0x0063 reporting to coordinator 0x0042 on
// channel 14, joined at time zero. The coordinator is closed to joining.
func NewSimulation(seed int64, samplesPerChip int, snrDB float64) (*Simulation, error) {
	phy, err := ieee802154.NewPHY(samplesPerChip)
	if err != nil {
		return nil, err
	}
	sampleRate := float64(samplesPerChip) * ieee802154.ChipRate
	medium, err := radio.NewMedium(sampleRate, seed)
	if err != nil {
		return nil, err
	}
	topo := vsim.Topology{Nodes: []vsim.NodeSpec{
		CoordinatorNode: {Role: vsim.RoleCoordinator, Parent: -1, Channel: DefaultChannel, PAN: DefaultPAN, Short: DefaultCoordinator},
		SensorNode:      {Role: vsim.RoleEndDevice, Parent: CoordinatorNode, Channel: DefaultChannel, PAN: DefaultPAN, Short: DefaultSensor},
	}}
	nw, err := vsim.New(topo, vsim.Config{
		Seed:         seed,
		SNRdB:        snrDB,
		DataInterval: ReportInterval,
		Telemetry:    true,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	nw.SetPermitJoin(CoordinatorNode, false)
	intruder, err := nw.NewIntruder(DefaultChannel)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		Medium:       medium,
		PHY:          phy,
		Network:      nw,
		AttackerLink: radio.Link{SNRdB: snrDB, LeadSamples: 200, LagSamples: 120},
		intruder:     intruder,
	}
	nw.Tap(DefaultChannel, func(fc vsim.FrameCapture) { s.heard = append(s.heard, fc) })
	return s, nil
}

// Secure enables CCM* link-layer security on both victim nodes under
// the shared 16-byte network key — the section VII counter-measure.
func (s *Simulation) Secure(key []byte, level ieee802154.SecurityLevel) error {
	for _, i := range []int{CoordinatorNode, SensorNode} {
		if err := s.Network.Secure(i, key, level); err != nil {
			return err
		}
	}
	return nil
}

func channelFreq(channel int) (float64, error) {
	return ieee802154.ChannelFrequencyMHz(channel)
}

// noiseFloorPower is the power the attacker hears on an idle channel.
const noiseFloorPower = 1e-3

// idle returns a noise-only capture of n samples.
func (s *Simulation) idle(n int) (dsp.IQ, error) {
	return dsp.NoiseFloor(n, noiseFloorPower, s.Medium.Rand())
}

// listen is the attacker's capture of one network transmission on
// channel: the PSDU modulated with the O-QPSK PHY, through the medium
// and the attacker link.
func (s *Simulation) listen(fc vsim.FrameCapture, channel int) (dsp.IQ, error) {
	rxFreq, err := channelFreq(channel)
	if err != nil {
		return nil, err
	}
	txFreq, err := channelFreq(fc.Channel)
	if err != nil {
		return nil, err
	}
	ppdu, err := ieee802154.NewPPDU(fc.PSDU)
	if err != nil {
		return nil, err
	}
	sig, err := s.PHY.Modulate(ppdu)
	if err != nil {
		return nil, err
	}
	return s.Medium.Deliver(sig, txFreq, rxFreq, s.AttackerLink)
}

// Step runs the network until the sensor's next data frame has gone out
// and the coordinator's acknowledgement window has passed — by then the
// coordinator has recorded the reading — and returns what an attacker
// listening on captureChannel hears of the frame. A reporting period
// without a sensor frame (a detached sensor) yields a noise-only
// capture.
func (s *Simulation) Step(captureChannel int) (dsp.IQ, error) {
	if _, err := channelFreq(captureChannel); err != nil {
		return nil, err
	}
	deadline := s.Network.Now() + ReportInterval + vsim.ReplyWindow
	s.heard = s.heard[:0]
	for i := 0; ; {
		for ; i < len(s.heard); i++ {
			if fc := s.heard[i]; fc.Src == SensorNode && fc.Kind == "data" {
				s.Network.Run(s.Network.Now() + ieee802154.AckWaitDuration)
				return s.listen(fc, captureChannel)
			}
		}
		if at, ok := s.Network.Scheduler().NextAt(); !ok || at > deadline {
			s.Network.Run(deadline)
			return s.idle(s.quietSamples())
		}
		s.Network.Step()
	}
}

// quietSamples is the length of a capture with nothing on the air: the
// airtime of a maximum-length frame.
func (s *Simulation) quietSamples() int {
	return int(ieee802154.FrameDuration(ieee802154.MaxPSDULength).Seconds() * s.Medium.SampleRateHz)
}

// Capture listens on a channel for one sensor period without injecting
// anything (scenario B's eavesdropping step).
func (s *Simulation) Capture(channel int) (dsp.IQ, error) {
	return s.Step(channel)
}

// Exchange transmits an attacker waveform on a channel and returns the
// attacker's capture of the victims' reply. Every joined node tuned to
// the channel demodulates the waveform at IQ; the frame reaches the
// network as one intruder transmission delivered to the nodes that
// decoded it, and the network runs through the MAC's reply window. The
// reply is the first frame a recipient puts on the air in answer —
// its acknowledgement only when nothing else follows, since an
// association response comes after the acknowledgement of its request.
// A channel with no node that decodes the frame, or no answer within the
// window, returns a noise-only capture, like a real listen window timing
// out.
func (s *Simulation) Exchange(sig dsp.IQ, channel int) (dsp.IQ, error) {
	if len(sig) == 0 {
		return nil, fmt.Errorf("zigbee: empty attacker transmission")
	}
	freq, err := channelFreq(channel)
	if err != nil {
		return nil, err
	}
	var (
		frame *ieee802154.MACFrame
		psdu  []byte
		to    []int
	)
	for _, i := range []int{CoordinatorNode, SensorNode} {
		if ni := s.Network.Node(i); !ni.Joined || ni.Channel != channel {
			continue
		}
		capture, err := s.Medium.Deliver(sig, freq, freq, s.AttackerLink)
		if err != nil {
			return nil, err
		}
		dem, err := s.PHY.Demodulate(capture)
		if err != nil {
			continue // no sync: this node heard nothing
		}
		f, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
		if err != nil {
			continue // FCS failure: dropped by the node's radio
		}
		if frame == nil {
			frame, psdu = f, dem.PPDU.PSDU
		}
		to = append(to, i)
	}
	if frame == nil {
		return s.idle(len(sig))
	}
	seq, err := s.intruder.Deliver(frame, frame.AckRequest, to...)
	if err != nil {
		return nil, err
	}
	s.heard = s.heard[:0]
	s.Network.Run(s.Network.Now() + ieee802154.FrameDuration(len(psdu)) + vsim.ReplyWindow)
	var reply *vsim.FrameCapture
	for i := range s.heard {
		if fc := &s.heard[i]; fc.InReplyTo == seq && (reply == nil || reply.Kind == "ack" && fc.Kind != "ack") {
			reply = fc
		}
	}
	if reply == nil {
		return s.idle(len(sig))
	}
	return s.listen(*reply, channel)
}
