package ids

import (
	"testing"

	"wazabee/internal/obs"
)

func TestFrameMonitorThresholdEdges(t *testing.T) {
	m := NewFrameMonitor(obs.NewRegistry())
	if m.FingerprintThreshold != DefaultFingerprintThreshold {
		t.Fatalf("default threshold = %v, want %v", m.FingerprintThreshold, DefaultFingerprintThreshold)
	}
	cases := []struct {
		name string
		evm  float64
		want bool
	}{
		{"zero", 0, false},
		{"native typical", 0.12, false},
		{"just below", DefaultFingerprintThreshold - 1e-9, false},
		{"exactly at threshold", DefaultFingerprintThreshold, false}, // strict >
		{"just above", DefaultFingerprintThreshold + 1e-9, true},
		{"diverted typical", 0.38, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := m.Judge(FrameFeatures{SoftEVM: tc.evm})
			if got := v.Has(AlertModulationFingerprint); got != tc.want {
				t.Errorf("Judge(evm=%v) fingerprint alert = %v, want %v", tc.evm, got, tc.want)
			}
			if !v.FrameSeen || v.SoftEVM != tc.evm {
				t.Errorf("verdict = %+v, want FrameSeen with SoftEVM %v", v, tc.evm)
			}
		})
	}
}

func TestFrameMonitorCustomThreshold(t *testing.T) {
	m := NewFrameMonitor(obs.NewRegistry())
	m.FingerprintThreshold = 0.5
	if m.Judge(FrameFeatures{SoftEVM: 0.4}).Suspicious() {
		t.Error("0.4 flagged under a 0.5 threshold")
	}
	if !m.Judge(FrameFeatures{SoftEVM: 0.6}).Has(AlertModulationFingerprint) {
		t.Error("0.6 not flagged under a 0.5 threshold")
	}
}

func TestFrameMonitorFramingAlert(t *testing.T) {
	m := NewFrameMonitor(obs.NewRegistry())
	v := m.Judge(FrameFeatures{SoftEVM: 0.1, BLEFraming: true})
	if !v.Has(AlertBLEFraming) {
		t.Error("BLE framing not flagged")
	}
	if v.Has(AlertModulationFingerprint) {
		t.Error("clean EVM flagged as fingerprint")
	}
}

func TestFrameMonitorAlertOrderMatchesInspect(t *testing.T) {
	// The IQ-tier Inspect appends unexpected-traffic, then fingerprint,
	// then framing; the frame tier must agree so first-alert attribution
	// is fidelity-independent.
	m := NewFrameMonitor(obs.NewRegistry())
	m.ChannelExpected = false
	v := m.Judge(FrameFeatures{SoftEVM: 0.4, BLEFraming: true})
	want := []AlertKind{AlertUnexpectedTraffic, AlertModulationFingerprint, AlertBLEFraming}
	if len(v.Alerts) != len(want) {
		t.Fatalf("alerts = %v, want %d kinds", v.Alerts, len(want))
	}
	for i, k := range want {
		if v.Alerts[i].Kind != k {
			t.Errorf("alert[%d] = %v, want %v", i, v.Alerts[i].Kind, k)
		}
	}
}

func TestFrameMonitorUnexpectedTraffic(t *testing.T) {
	m := NewFrameMonitor(obs.NewRegistry())
	m.ChannelExpected = false
	v := m.Judge(FrameFeatures{SoftEVM: 0.05})
	if !v.Has(AlertUnexpectedTraffic) || len(v.Alerts) != 1 {
		t.Errorf("verdict alerts = %v, want only unexpected-traffic", v.Alerts)
	}
}

func TestFrameMonitorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewFrameMonitor(reg)
	m.Judge(FrameFeatures{SoftEVM: 0.1})
	m.Judge(FrameFeatures{SoftEVM: 0.4})
	m.Judge(FrameFeatures{SoftEVM: 0.4, BLEFraming: true})
	if got := reg.Counter("wazabee_ids_frame_inspections_total").Value(); got != 3 {
		t.Errorf("inspections = %d, want 3", got)
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertModulationFingerprint.String()).Value(); got != 2 {
		t.Errorf("fingerprint detections = %d, want 2", got)
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertBLEFraming.String()).Value(); got != 1 {
		t.Errorf("framing detections = %d, want 1", got)
	}
	// Handles create their series on first count: kinds that never
	// fired leave nothing in the registry.
	if n := len(reg.Snapshot()); n != 3 {
		t.Errorf("registry holds %d series, want 3", n)
	}
}

func TestMonitorDefaultThresholdConstant(t *testing.T) {
	m, err := NewMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.FingerprintThreshold != DefaultFingerprintThreshold {
		t.Errorf("IQ monitor default threshold = %v, want the shared constant %v",
			m.FingerprintThreshold, DefaultFingerprintThreshold)
	}
}
