// Package zigbee runs the small XBee-based domotic network of the
// paper's experimental setup (section VI-A) — a sensor end device with
// 16-bit address 0x0063 reporting an integer every two seconds to a
// coordinator 0x0042 on PAN 0x1234 — as a two-node sim.Network behind
// an IQ adapter, and carries the codecs of the traffic around it: the
// remote AT command mechanism the scenario B attack abuses to push a new
// channel configuration into the sensor, and the Zigbee NWK, APS and ZCL
// layers.
package zigbee

import (
	"errors"
	"fmt"

	vsim "wazabee/internal/zigbee/sim"
)

// API frame identifiers of the (simplified) XBee application protocol
// carried inside MAC data frames.
const (
	// FrameRemoteAT is a remote AT command request.
	FrameRemoteAT = vsim.RemoteATRequest
	// FrameRemoteATResponse acknowledges a remote AT command.
	FrameRemoteATResponse = vsim.RemoteATResponse
	// FrameSensorData tags the Table III reading payload.
	FrameSensorData = 0x10
)

// ErrNotATCommand is returned when a payload does not carry a remote AT
// command frame.
var ErrNotATCommand = errors.New("zigbee: payload is not a remote AT command")

// ATCommand is a remote AT command: two command letters plus an optional
// parameter, the XBee remote-configuration mechanism exploited in [28].
type ATCommand struct {
	// FrameID correlates the response with the request.
	FrameID byte
	// Command is the two-letter AT command ("CH" sets the channel).
	Command string
	// Param is the command parameter (new value), empty for queries.
	Param []byte
}

// Encode serialises the command into a MAC payload.
func (c *ATCommand) Encode() ([]byte, error) {
	if len(c.Command) != 2 {
		return nil, fmt.Errorf("zigbee: AT command %q must be two letters", c.Command)
	}
	out := make([]byte, 0, 4+len(c.Param))
	out = append(out, FrameRemoteAT, c.FrameID, c.Command[0], c.Command[1])
	return append(out, c.Param...), nil
}

// ParseATCommand decodes a MAC payload as a remote AT command.
func ParseATCommand(payload []byte) (*ATCommand, error) {
	if len(payload) < 4 || payload[0] != FrameRemoteAT {
		return nil, ErrNotATCommand
	}
	return &ATCommand{
		FrameID: payload[1],
		Command: string(payload[2:4]),
		Param:   append([]byte{}, payload[4:]...),
	}, nil
}

// ATResponse is the acknowledgement to a remote AT command.
type ATResponse struct {
	FrameID byte
	Command string
	// Status is zero on success.
	Status byte
}

// Encode serialises the response into a MAC payload.
func (r *ATResponse) Encode() ([]byte, error) {
	if len(r.Command) != 2 {
		return nil, fmt.Errorf("zigbee: AT command %q must be two letters", r.Command)
	}
	return []byte{FrameRemoteATResponse, r.FrameID, r.Command[0], r.Command[1], r.Status}, nil
}

// ParseATResponse decodes a MAC payload as a remote AT response.
func ParseATResponse(payload []byte) (*ATResponse, error) {
	if len(payload) != 5 || payload[0] != FrameRemoteATResponse {
		return nil, fmt.Errorf("zigbee: payload is not a remote AT response")
	}
	return &ATResponse{
		FrameID: payload[1],
		Command: string(payload[2:4]),
		Status:  payload[4],
	}, nil
}

// SensorPayload encodes the reading every Table III frame carries.
// The victim network's own readings use sim.ReadingPayload.
func SensorPayload(value uint16) []byte {
	return []byte{FrameSensorData, byte(value), byte(value >> 8)}
}
