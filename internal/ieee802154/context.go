package ieee802154

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrReplay is returned when a frame reuses an already-seen frame
// counter.
var ErrReplay = errors.New("ieee802154: frame counter replayed")

// auxHeaderLen is the simplified auxiliary security header a
// SecurityContext carries in secured payloads: security level (1), frame
// counter (4), source extended address (8).
const auxHeaderLen = 13

// SecurityContext holds a node's link-layer security state: the shared
// network key, this node's extended address (the CCM* nonce source), its
// outgoing frame counter and the replay window for its peers.
//
// This is the counter-measure of section VII: a WazaBee attacker can
// still put perfectly modulated frames on the air, but without the key
// they fail authentication and are silently dropped.
type SecurityContext struct {
	// Key is the 16-byte network key.
	Key []byte
	// ExtAddr is this node's 64-bit extended address.
	ExtAddr uint64
	// Level selects the protection mode (encrypted levels recommended).
	Level SecurityLevel

	mu       sync.Mutex
	counter  uint32
	lastSeen map[uint64]uint32
}

// NewSecurityContext builds a security context.
func NewSecurityContext(key []byte, extAddr uint64, level SecurityLevel) (*SecurityContext, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("ieee802154: key length %d, want 16", len(key))
	}
	if level == SecNone {
		return nil, fmt.Errorf("ieee802154: security context needs a protecting level")
	}
	return &SecurityContext{
		Key:      append([]byte{}, key...),
		ExtAddr:  extAddr,
		Level:    level,
		lastSeen: make(map[uint64]uint32),
	}, nil
}

// Seal protects an application payload: auxiliary header followed by the
// CCM* output. The frame counter increments per call.
func (c *SecurityContext) Seal(payload []byte) ([]byte, error) {
	c.mu.Lock()
	c.counter++
	counter := c.counter
	c.mu.Unlock()

	aux := make([]byte, auxHeaderLen)
	aux[0] = byte(c.Level)
	binary.LittleEndian.PutUint32(aux[1:5], counter)
	binary.BigEndian.PutUint64(aux[5:13], c.ExtAddr)

	nonce := Nonce(c.ExtAddr, counter, c.Level)
	secured, err := SecureFrame(c.Key, nonce, c.Level, aux, payload)
	if err != nil {
		return nil, err
	}
	return append(aux, secured...), nil
}

// Open verifies (and decrypts) a payload produced by Seal with the same
// key, enforcing strictly increasing frame counters per source.
func (c *SecurityContext) Open(payload []byte) ([]byte, error) {
	if len(payload) < auxHeaderLen {
		return nil, fmt.Errorf("ieee802154: secured payload too short (%d bytes)", len(payload))
	}
	aux := payload[:auxHeaderLen]
	level := SecurityLevel(aux[0])
	counter := binary.LittleEndian.Uint32(aux[1:5])
	source := binary.BigEndian.Uint64(aux[5:13])
	if level.MICLength() == 0 {
		return nil, fmt.Errorf("ieee802154: unprotected security level %d", level)
	}

	nonce := Nonce(source, counter, level)
	opened, err := OpenFrame(c.Key, nonce, level, aux, payload[auxHeaderLen:])
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if last, seen := c.lastSeen[source]; seen && counter <= last {
		return nil, ErrReplay
	}
	c.lastSeen[source] = counter
	return opened, nil
}
