package zigbee

import (
	"reflect"
	"testing"
)

// FuzzParseZigbeeDataFrame feeds arbitrary MAC payloads to the NWK/APS
// unstacker and the ZCL parser: they must reject hostile input with an
// error, never panic, and any frame they accept must re-encode to bytes
// that parse back to the same frame (the NWK frame carrying the
// re-encoded APS bytes, since APS parsing drops reserved bits).
func FuzzParseZigbeeDataFrame(f *testing.F) {
	data, _ := BuildZigbeeDataFrame(1, 2, DefaultCoordinator, DefaultSensor, ClusterTemperature, []byte{0x18, 0x01, 0x0a})
	f.Add(data)
	onOff, _ := BuildOnOffCommand(3, 4, 5, 0x0001, DefaultCoordinator, OnOffCmdToggle)
	f.Add(onOff)
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x18, 0xff, 0xff, 0x00, 0x00, 0x1e, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if zcl, err := ParseZCLFrame(data); err == nil {
			enc, err := zcl.Encode()
			if err != nil {
				t.Fatalf("re-encoding an accepted ZCL frame: %v", err)
			}
			back, err := ParseZCLFrame(enc)
			if err != nil || !reflect.DeepEqual(back, zcl) {
				t.Fatalf("ZCL round trip: %+v (%v) vs %+v", back, err, zcl)
			}
		}
		nwk, aps, err := ParseZigbeeDataFrame(data)
		if err != nil {
			return
		}
		_, _ = ParseZCLFrame(aps.Payload)
		apsBytes, err := aps.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted APS frame: %v", err)
		}
		renwk := *nwk
		renwk.Payload = apsBytes
		enc, err := renwk.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted NWK frame: %v", err)
		}
		nwk2, aps2, err := ParseZigbeeDataFrame(enc)
		if err != nil || !reflect.DeepEqual(*nwk2, renwk) || !reflect.DeepEqual(aps2, aps) {
			t.Fatalf("NWK/APS round trip: %+v %+v (%v) vs %+v %+v", nwk2, aps2, err, renwk, aps)
		}
	})
}
