package ieee802154

import (
	"bytes"
	"errors"
	"testing"
)

var testNetworkKey = []byte("sixteen byte key")

func TestNewSecurityContextValidation(t *testing.T) {
	if _, err := NewSecurityContext([]byte("short"), 1, SecEncMIC32); err == nil {
		t.Error("expected error for short key")
	}
	if _, err := NewSecurityContext(testNetworkKey, 1, SecNone); err == nil {
		t.Error("expected error for SecNone level")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	a, err := NewSecurityContext(testNetworkKey, 0x1111, SecEncMIC32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecurityContext(testNetworkKey, 0x2222, SecEncMIC32)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("reading 23")
	sealed, err := a.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := b.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, payload) {
		t.Errorf("opened = %q, want %q", opened, payload)
	}
}

func TestOpenRejectsReplay(t *testing.T) {
	a, err := NewSecurityContext(testNetworkKey, 0x1111, SecEncMIC32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecurityContext(testNetworkKey, 0x2222, SecEncMIC32)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := a.Seal([]byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay returned %v, want ErrReplay", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	b, err := NewSecurityContext(testNetworkKey, 0x2222, SecEncMIC32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short payload")
	}
	bad := make([]byte, auxHeaderLen+8)
	if _, err := b.Open(bad); err == nil {
		t.Error("expected error for unprotected level in aux header")
	}
}
