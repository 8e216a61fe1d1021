package capture

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPCAPRoundTrip drives the reader with arbitrary bytes (it must
// error, never panic, never over-allocate) and checks that writing any
// frame and reading it back is byte-identical on re-encode.
func FuzzPCAPRoundTrip(f *testing.F) {
	var seedBuf bytes.Buffer
	if pw, err := NewPCAPWriter(&seedBuf); err == nil {
		pw.WritePacket(time.Unix(1, 2000), []byte{0xde, 0xad})
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("EXnot a pcap at all, just prose"))
	f.Add(bytes.Repeat([]byte{0xa1}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Arbitrary input never panics the reader.
		if pr, err := NewPCAPReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 64; i++ {
				if _, _, err := pr.Next(); err != nil {
					break
				}
			}
		}

		// 2. Any frame-sized payload survives a write→read→write round
		// trip byte-identically.
		psdu := data
		if len(psdu) > 127 {
			psdu = psdu[:127]
		}
		if len(psdu) == 0 {
			return
		}
		rec := Record{At: time.Unix(1700000000, 123456000), Channel: 14, PSDU: psdu}

		var first bytes.Buffer
		pw, err := NewPCAPWriter(&first)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}

		pr, err := NewPCAPReader(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejecting our own header: %v", err)
		}
		at, got, err := pr.Next()
		if err != nil {
			t.Fatalf("rejecting our own packet: %v", err)
		}
		if !bytes.Equal(got, psdu) {
			t.Fatalf("payload changed: %x -> %x", psdu, got)
		}

		var second bytes.Buffer
		pw2, err := NewPCAPWriter(&second)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw2.WritePacket(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("pcap re-encode not byte-identical:\n%x\n%x", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzZEPDecode feeds the ZEP decoder arbitrary datagrams: it must
// error on corrupt input without panicking, and anything it accepts
// must re-encode into a datagram that decodes to the same frame.
func FuzzZEPDecode(f *testing.F) {
	if good, err := EncodeZEP(Record{At: time.Unix(5, 0), Channel: 14, LQI: 9, PSDU: []byte{1, 2, 3}}, 0x5742, 1); err == nil {
		f.Add(good)
	}
	f.Add([]byte{})
	f.Add([]byte{'E', 'X', 2, 2, 0, 0, 0, 1})
	f.Add([]byte("EX definitely not a capture"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, deviceID, seq, err := DecodeZEP(data)
		if err != nil {
			return
		}
		enc, err := EncodeZEP(rec, deviceID, seq)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, deviceID2, seq2, err := DecodeZEP(enc)
		if err != nil {
			t.Fatalf("re-encoded datagram does not decode: %v", err)
		}
		if deviceID2 != deviceID || seq2 != seq {
			t.Fatalf("device/seq changed: %d/%d -> %d/%d", deviceID, seq, deviceID2, seq2)
		}
		if rec2.Channel != rec.Channel || rec2.LQI != rec.LQI || !bytes.Equal(rec2.PSDU, rec.PSDU) {
			t.Fatalf("frame changed across re-encode: %+v vs %+v", rec, rec2)
		}
		// The NTP fraction floors at 2^-32 s granularity per pass.
		if d := rec2.At.Sub(rec.At); d < -2*time.Nanosecond || d > 2*time.Nanosecond {
			t.Fatalf("timestamp drifted %v", d)
		}
	})
}

// FuzzReadRecord drives the decoder of wazabeed's TCP subscriber stream
// (uint32 length-prefixed records) with arbitrary bytes: ReadRecord must
// error, never panic or over-allocate, and every record it accepts must
// survive a WriteRecord → ReadRecord round trip byte for byte.
func FuzzReadRecord(f *testing.F) {
	var stream bytes.Buffer
	WriteRecord(&stream, Record{At: time.Unix(1700000000, 5), Channel: 14, LQI: 200, RSSIdBm: -40,
		SNRdB: 12, Seq: 7, Decoder: "wazabee", PSDU: []byte{0x41, 0x88, 0x01, 0x34, 0x12}})
	WriteRecord(&stream, Record{Channel: 26})
	f.Add(stream.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ {
			rec, err := ReadRecord(r)
			if err != nil {
				return
			}
			var wire bytes.Buffer
			if err := WriteRecord(&wire, rec); err != nil {
				t.Fatalf("re-encoding an accepted record: %v", err)
			}
			back, err := ReadRecord(&wire)
			if err != nil {
				t.Fatalf("rejecting our own record: %v", err)
			}
			want, _ := rec.MarshalBinary()
			got, _ := back.MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Fatalf("record round trip differs:\n%x\nvs\n%x", got, want)
			}
		}
	})
}
