package ieee802154

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wazabee/internal/dsp"
	"wazabee/internal/obs"
)

// goldenCase is one seeded capture of the receiver goldens, with the
// chip-distance gate the receiver runs it under.
type goldenCase struct {
	name string
	sig  dsp.IQ
	gate int
}

// receiverGoldenCases builds the seeded capture set of the O-QPSK
// receiver goldens at one oversampling factor: clean frames, AWGN from
// −2 to 12 dB, ±40 ppm CFO with a random carrier phase, every sample
// timing offset, a frame truncated at 2/3, noise only, captures below
// the minimum length (one of them holding the whole sync pattern) and
// frames run against a tight chip-distance gate.
func receiverGoldenCases(t *testing.T, phy *PHY) []goldenCase {
	t.Helper()
	sps := phy.SamplesPerChip
	rate := float64(ChipRate * sps)
	var cases []goldenCase
	add := func(name string, sig dsp.IQ, gate int) {
		cases = append(cases, goldenCase{name: name, sig: sig, gate: gate})
	}
	pad := func(sig dsp.IQ, before, after int) dsp.IQ {
		out, err := sig.Pad(before, after)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	noisy := func(sig dsp.IQ, snr float64, seed int64) dsp.IQ {
		if err := dsp.AddAWGN(sig, snr, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		return sig
	}
	frames := [][]byte{
		{0x61, 0x88, 0x2a},
		{0x41, 0x88, 0x2a, 0x34, 0x12, 0xff, 0xff, 0x01, 0x00, 0x13, 0x37, 0xc0, 0xde, 0x99, 0x42, 0x07},
	}
	for fi, payload := range frames {
		base, err := phy.Modulate(testPPDU(t, payload))
		if err != nil {
			t.Fatal(err)
		}
		before, after := 40*sps+3, 30*sps
		f := fmt.Sprintf("f%d", fi)
		add(f+"/clean", pad(base, before, after), 15)
		for snr := -2; snr <= 12; snr += 2 {
			for seed := int64(1); seed <= 2; seed++ {
				add(fmt.Sprintf("%s/awgn%+ddB/s%d", f, snr, seed),
					noisy(pad(base, before, after), float64(snr), seed*1000+int64(snr)), 15)
			}
		}
		for i, ppm := range []float64{-40, 40} {
			rnd := rand.New(rand.NewSource(int64(77 + i + 10*fi)))
			sig := pad(base, before, after)
			sig.MixFrequency(ppm * 1e-6 * 2.405e9 / rate)
			sig.RotatePhase(rnd.Float64() * 2 * math.Pi)
			add(fmt.Sprintf("%s/cfo%+gppm", f, ppm), noisy(sig, 10, int64(5+i)), 15)
		}
		for off := 0; off < sps; off++ {
			add(fmt.Sprintf("%s/timing%d", f, off), noisy(pad(base, before+off, after), 8, int64(300+off)), 15)
		}
		whole := pad(base, before, after)
		add(f+"/truncated", whole[:2*len(whole)/3], 15)
		for seed := int64(1); seed <= 3; seed++ {
			add(fmt.Sprintf("%s/gate1/s%d", f, seed), noisy(pad(base, before, after), 4, 900+seed), 1)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		noise, err := dsp.NoiseFloor(600*sps, 0.05, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("noise/s%d", seed), noise, 15)
	}
	add("short/10", make(dsp.IQ, 10), 15)
	// Holds the full sync pattern, yet is below the minimum capture.
	base, err := phy.Modulate(testPPDU(t, frames[0]))
	if err != nil {
		t.Fatal(err)
	}
	add("short/synced", base[:4*ChipsPerSymbol*sps-1], 15)
	short, err := dsp.NoiseFloor(4*ChipsPerSymbol*sps-1, 0.05, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	add("short/min-1", short, 15)
	return cases
}

// floatFields renders every field of a struct, float64 fields as their
// IEEE-754 bits so the rendering is bit-exact.
func floatFields(v any) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		val := fmt.Sprint(f.Interface())
		if f.Kind() == reflect.Float64 {
			val = fmt.Sprintf("%016x", math.Float64bits(f.Float()))
		}
		parts = append(parts, rv.Type().Field(i).Name+"="+val)
	}
	return strings.Join(parts, " ")
}

// registryLines renders every series of reg: counter values, and for
// histograms the count, sum bits and bucket counts — except that stage
// timings contribute only their count, since their durations are wall
// clock.
func registryLines(reg *obs.Registry) []string {
	var out []string
	for _, s := range reg.Snapshot() {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var labels []string
		for _, k := range keys {
			labels = append(labels, k+"="+s.Labels[k])
		}
		line := fmt.Sprintf("%s{%s} %s", s.Name, strings.Join(labels, ","), s.Kind)
		switch {
		case s.Kind != "histogram":
			line += fmt.Sprintf(" %g", s.Value)
		case s.Name == obs.StageSecondsMetric:
			line += fmt.Sprintf(" count=%d", s.Count)
		default:
			line += fmt.Sprintf(" count=%d sum=%016x buckets=", s.Count, math.Float64bits(s.Sum))
			for _, bk := range s.Buckets {
				line += fmt.Sprintf("%d,", bk.Count)
			}
		}
		out = append(out, line)
	}
	return out
}

// renderReceiverGolden runs every golden capture through
// PHY.DemodulateStats, each into a fresh registry, and renders the
// verdict, the frame evidence, every link.Stats field and the registry.
func renderReceiverGolden(t *testing.T, sps int) string {
	t.Helper()
	phy, err := NewPHY(sps)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range receiverGoldenCases(t, phy) {
		reg := obs.NewRegistry()
		phy.Obs = reg
		phy.MaxChipDistance = c.gate
		dem, st, err := phy.DemodulateStats(c.sig)
		verdict := "decoded"
		switch {
		case errors.Is(err, ErrNoSync):
			verdict = "no_sync"
		case err != nil:
			verdict = "error " + err.Error()
		}
		fmt.Fprintf(&b, "%s len=%d gate=%d verdict=%s\n", c.name, len(c.sig), c.gate, verdict)
		if dem != nil {
			fmt.Fprintf(&b, "  dem psdu=%x syncErrors=%d sampleOffset=%d cfoBias=%016x syncCorr=%016x softEVM=%016x worst=%d total=%d symbols=%d hist=%v span=%d linked=%v\n",
				dem.PPDU.PSDU, dem.SyncErrors, dem.SampleOffset, math.Float64bits(dem.CFOBias),
				math.Float64bits(dem.SyncCorr), math.Float64bits(dem.SoftEVM), dem.WorstChipDistance,
				dem.TotalChipDistance, dem.SymbolCount, dem.ChipDistHist, dem.TransitionSpan, dem.Link == st)
		}
		fmt.Fprintf(&b, "  stats %s\n", floatFields(*st))
		for _, line := range registryLines(reg) {
			fmt.Fprintf(&b, "  reg %s\n", line)
		}
	}
	return b.String()
}

// TestReceiverGoldens pins the O-QPSK receiver's every decision, stat
// and registry count on a seeded capture set at 4 and 8 samples per
// chip. Regenerate (only when a receiver change is meant to move them)
// with:
//
//	RECEIVER_UPDATE_GOLDEN=1 go test ./internal/ieee802154 -run TestReceiverGoldens
func TestReceiverGoldens(t *testing.T) {
	for _, sps := range []int{4, 8} {
		t.Run(fmt.Sprintf("sps%d", sps), func(t *testing.T) {
			got := renderReceiverGolden(t, sps)
			path := filepath.Join("testdata", fmt.Sprintf("receiver_sps%d.golden", sps))
			if os.Getenv("RECEIVER_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
