package experiment

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// renderLinkGolden runs a small Table III (3 frames per channel) and a
// 3-point sweep (2, 6 and 10 dB, 4 frames) on both sides of the nRF52832
// at one fidelity tier, all into one registry, and renders the results
// plus the run's class counters.
func renderLinkGolden(t *testing.T, fid radio.Fidelity) string {
	t.Helper()
	reg := obs.NewRegistry()
	model := chip.NRF52832()
	var b strings.Builder
	for _, side := range []Side{Reception, Transmission} {
		cfg := DefaultConfig()
		cfg.FramesPerChannel = 3
		cfg.Fidelity = fid
		cfg.Obs = reg
		res, err := Run(cfg, model, side)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table3 %s\n", mustJSON(t, res))
	}
	for _, side := range []Side{Reception, Transmission} {
		cfg := DefaultConfig()
		cfg.FramesPerChannel = 4
		cfg.Fidelity = fid
		cfg.Obs = reg
		sweep := DefaultSweepConfig()
		sweep.SNRs = []float64{2, 6, 10}
		points, err := RunSweep(cfg, sweep, model, side)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "sweep %s %s\n", side, mustJSON(t, points))
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, FramesMetric+"{") || strings.HasPrefix(line, SweepMetric+"{") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestLinkGoldens pins Table III rows, sweep points and class counters
// on every fidelity tier, byte for byte: any change to the link's
// operating points, seeding or classification shows up here.
func TestLinkGoldens(t *testing.T) {
	for _, fid := range []radio.Fidelity{radio.FidelityIQ, radio.FidelitySymbol, radio.FidelityFrame} {
		t.Run(fid.String(), func(t *testing.T) {
			want, err := os.ReadFile("testdata/link_" + fid.String() + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got := renderLinkGolden(t, fid); got != string(want) {
				t.Errorf("output differs from testdata/link_%s.golden:\n%s", fid, got)
			}
		})
	}
}
