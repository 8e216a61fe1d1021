package radio

import (
	"errors"
	"math"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestParseFidelityRoundTrip(t *testing.T) {
	for _, f := range []Fidelity{FidelityIQ, FidelitySymbol, FidelityFrame} {
		got, err := ParseFidelity(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFidelity(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFidelity("waveform"); err == nil {
		t.Error("unknown fidelity accepted")
	}
}

func TestChannelOptionValidation(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Channel(FidelityIQ, ChannelOptions{}); err == nil {
		t.Error("IQ channel without endpoints accepted")
	}
	if _, err := m.Channel(Fidelity(42), ChannelOptions{}); err == nil {
		t.Error("unknown fidelity accepted")
	}
	if _, err := m.Channel(FidelitySymbol, ChannelOptions{Profile: "no/such-profile"}); err == nil {
		t.Error("missing calibration profile accepted")
	}
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatalf("%v channel on default profile: %v", f, err)
		}
		if ch.Fidelity() != f {
			t.Errorf("channel fidelity %v, want %v", ch.Fidelity(), f)
		}
	}
}

// testPSDU builds a minimal FCS-valid frame body for channel tests.
func testPSDU(t *testing.T, n int) []byte {
	t.Helper()
	if n < 2 {
		t.Fatalf("psdu length %d too short for an FCS", n)
	}
	psdu := make([]byte, n)
	for i := range psdu[:n-2] {
		psdu[i] = byte(i * 7)
	}
	fcs := bitstream.FCS16(psdu[:n-2])
	psdu[n-2], psdu[n-1] = byte(fcs), byte(fcs>>8)
	return psdu
}

func TestSymbolChannelDeterministicInSeed(t *testing.T) {
	m1, _ := NewMedium(16e6, 1)
	m2, _ := NewMedium(16e6, 99) // medium seed must not matter
	m1.Obs, m2.Obs = obs.NewRegistry(), obs.NewRegistry()
	ch1, err := m1.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := m2.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	link := Link{SNRdB: 2} // deep in the error regime
	for seed := uint64(0); seed < 256; seed++ {
		spec := FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed}
		a, err1 := ch1.Deliver(spec)
		b, err2 := ch2.Deliver(spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: deliver errors %v, %v", seed, err1, err2)
		}
		if a.Valid != b.Valid || a.ChipErrors != b.ChipErrors ||
			!errors.Is(a.DecodeErr, b.DecodeErr) || string(a.PSDU) != string(b.PSDU) {
			t.Fatalf("seed %d: outcomes diverge: %+v vs %+v", seed, a, b)
		}
	}
}

// TestSymbolChannelOutcomeClasses checks that mid-waterfall delivery
// produces all three Table III outcome classes with sound semantics:
// sync failures carry ErrNoSync and no PSDU, corrupted frames carry a
// same-length PSDU that differs from the transmission, and valid frames
// return it byte-identical.
func TestSymbolChannelOutcomeClasses(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	ch, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	link := Link{SNRdB: 2}
	var valid, corrupted, lost int
	for seed := uint64(0); seed < 4000; seed++ {
		out, err := ch.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !out.InBand:
			t.Fatal("co-channel delivery out of band")
		case out.DecodeErr != nil:
			if !errors.Is(out.DecodeErr, ieee802154.ErrNoSync) {
				t.Fatalf("unexpected decode error %v", out.DecodeErr)
			}
			if out.PSDU != nil {
				t.Fatal("sync failure still produced a PSDU")
			}
			lost++
		case out.Valid:
			if string(out.PSDU) != string(psdu) {
				t.Fatal("valid outcome with mismatched PSDU")
			}
			valid++
		default:
			if len(out.PSDU) != len(psdu) {
				t.Fatalf("corrupted PSDU length %d, want %d", len(out.PSDU), len(psdu))
			}
			if string(out.PSDU) == string(psdu) {
				t.Fatal("corrupted outcome with byte-identical PSDU")
			}
			if out.ChipErrors <= 5 {
				t.Fatalf("corruption with only %d chip errors (min codeword distance is 12)", out.ChipErrors)
			}
			corrupted++
		}
	}
	if valid == 0 || corrupted == 0 || lost == 0 {
		t.Errorf("classes not all populated at 2 dB: valid=%d corrupted=%d lost=%d", valid, corrupted, lost)
	}
}

// TestSymbolAndFrameTiersAgree cross-checks the two calibrated tiers
// against each other: the frame tier's closed-form success probability
// must match the symbol tier's empirical delivery rate, since both are
// derived from the same calibration cells and despreader model.
func TestSymbolAndFrameTiersAgree(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	sym, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frm, err := m.Channel(FidelityFrame, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	for _, snr := range []float64{0, 2, 4} {
		link := Link{SNRdB: snr}
		const trials = 6000
		delivered := 0
		for seed := uint64(0); seed < trials; seed++ {
			out, err := sym.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if out.Delivered() {
				delivered++
			}
		}
		fout, err := frm.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		prob := fout.SuccessProb
		got := float64(delivered) / trials
		// 5-sigma binomial noise plus a small margin for the frame
		// tier's Monte-Carlo symbol-decode table.
		tol := 5*math.Sqrt(prob*(1-prob)/trials) + 0.015
		if math.Abs(got-prob) > tol {
			t.Errorf("snr %g: symbol-tier delivery rate %.4f vs frame-tier prob %.4f (tol %.4f)",
				snr, got, prob, tol)
		}
	}
}

func TestSymbolChannelPassbandGate(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	ch, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ch.Deliver(FrameSpec{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2470, Link: Link{SNRdB: 30}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.InBand || out.Received() || out.Delivered() {
		t.Errorf("out-of-band delivery reported %+v", out)
	}
	adj, err := ch.Deliver(FrameSpec{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2421, Link: Link{SNRdB: 40}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !adj.InBand {
		t.Error("adjacent channel should still be in band")
	}
}

func TestWiFiWeight(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	if w := m.wifiWeight(2440, 0); w != 0 {
		t.Errorf("clean medium weight %g, want 0", w)
	}
	itf, err := NewWiFiInterferer(6, 0.005, 6.0, 800) // 2437 MHz, reference duty/power
	if err != nil {
		t.Fatal(err)
	}
	m.AddWiFi(itf)
	want := itf.Overlap(2440)
	if got := m.wifiWeight(2440, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("reference-shaped interferer weight %g, want overlap %g", got, want)
	}
	// 10 dB of receiver rejection scales the weight by 0.1.
	if got := m.wifiWeight(2440, 10); math.Abs(got-want/10) > 1e-12 {
		t.Errorf("rejected weight %g, want %g", got, want/10)
	}
	// A second network doubles up additively.
	m.AddWiFi(itf)
	if got := m.wifiWeight(2440, 0); math.Abs(got-2*want) > 1e-12 {
		t.Errorf("two networks weight %g, want %g", got, 2*want)
	}
}

func TestCalProfileLookupInterpolates(t *testing.T) {
	mk := func(sf float64) CalCell {
		c := CalCell{SyncFail: sf}
		c.Dist[0] = 1 - sf/2
		c.Dist[8] = sf / 2
		return c
	}
	p := &CalProfile{
		Name:  "test",
		SNRdB: []float64{0, 10},
		CFOHz: []float64{0},
		WiFi:  []float64{0, 1},
		Cells: []CalCell{mk(0.8), mk(1.0), mk(0.2), mk(0.6)},
	}
	if got := p.Lookup(0, 0, 0).SyncFail; got != 0.8 {
		t.Errorf("corner lookup %g, want 0.8", got)
	}
	if got := p.Lookup(-50, 0, 0).SyncFail; got != 0.8 {
		t.Errorf("clamped-low lookup %g, want 0.8", got)
	}
	if got := p.Lookup(50, 0, 2).SyncFail; got != 0.6 {
		t.Errorf("clamped-high lookup %g, want 0.6", got)
	}
	if got := p.Lookup(5, 0, 0).SyncFail; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SNR midpoint %g, want 0.5", got)
	}
	mid := p.Lookup(5, 0, 0.5)
	if math.Abs(mid.SyncFail-0.65) > 1e-12 {
		t.Errorf("bilinear midpoint %g, want 0.65", mid.SyncFail)
	}
	sum := 0.0
	for _, d := range mid.Dist {
		sum += d
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("interpolated distribution sums to %g", sum)
	}
	// Negative CFO mirrors onto the positive axis.
	if a, b := p.Lookup(5, -3, 0).SyncFail, p.Lookup(5, 3, 0).SyncFail; a != b {
		t.Errorf("CFO sign symmetry broken: %g vs %g", a, b)
	}
}

func TestDefaultCalTableShipsAllProfiles(t *testing.T) {
	table, err := DefaultCalTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		ProfileOQPSK,
		CalProfileName("nRF52832", "reception"),
		CalProfileName("nRF52832", "transmission"),
		CalProfileName("CC1352-R1", "reception"),
		CalProfileName("CC1352-R1", "transmission"),
	} {
		if _, err := table.Profile(name); err != nil {
			t.Errorf("embedded table: %v", err)
		}
	}
}

// frameTier builds a frame-tier channel on the native O-QPSK profile —
// the channel the mesh simulator's erasure draws run on — over a medium
// with the given seed.
func frameTier(t *testing.T, mediumSeed int64) Channel {
	t.Helper()
	m, err := NewMedium(16e6, mediumSeed)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	ch, err := m.Channel(FidelityFrame, ChannelOptions{Profile: ProfileOQPSK})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// deliverLen delivers a length-only frame from 2420 MHz on ch.
func deliverLen(t *testing.T, ch Channel, psduLen int, rxFreqMHz, snrDB float64, seed uint64) FrameOutcome {
	t.Helper()
	out, err := ch.Deliver(FrameSpec{
		PSDULen: psduLen, TxFreqMHz: 2420, RxFreqMHz: rxFreqMHz,
		Link: Link{SNRdB: snrDB}, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeliverVirtualPassbandGate checks the frame tier's passband gate:
// far-channel transmissions are never delivered and a strong
// co-channel frame always is.
func TestDeliverVirtualPassbandGate(t *testing.T) {
	ch := frameTier(t, 1)
	if out := deliverLen(t, ch, 20, 2470, 30, 1); out.InBand || out.Delivered() {
		t.Errorf("out-of-band delivery reported %+v", out)
	}
	out := deliverLen(t, ch, 20, 2420, 30, 1)
	if !out.InBand || !out.Delivered() {
		t.Errorf("30 dB co-channel frame not delivered: %+v", out)
	}
	if out.SuccessProb < 0.999 {
		t.Errorf("success prob %g at 30 dB, want ~1", out.SuccessProb)
	}
}

// TestDeliverVirtualAdjacentChannelPenalty checks that a frame-tier
// delivery on the adjacent channel is in band but pays the 20 dB
// penalty in success probability.
func TestDeliverVirtualAdjacentChannelPenalty(t *testing.T) {
	ch := frameTier(t, 1)
	co := deliverLen(t, ch, 40, 2420, 12, 7)
	adj := deliverLen(t, ch, 40, 2421, 12, 7)
	if !adj.InBand {
		t.Fatal("adjacent channel should still be in band")
	}
	if adj.SuccessProb >= co.SuccessProb {
		t.Errorf("adjacent-channel success prob %g not below co-channel %g", adj.SuccessProb, co.SuccessProb)
	}
}

// TestFrameChannelDeterministicInSeed checks that a frame-tier outcome
// is a function of the delivery seed alone: the medium's own seed (and
// its shared Rand) must not matter.
func TestFrameChannelDeterministicInSeed(t *testing.T) {
	ch1, ch2 := frameTier(t, 1), frameTier(t, 99)
	for seed := uint64(0); seed < 512; seed++ {
		a := deliverLen(t, ch1, 60, 2420, 1.5, seed) // deep in the erasure regime
		b := deliverLen(t, ch2, 60, 2420, 1.5, seed)
		if a.InBand != b.InBand || a.Delivered() != b.Delivered() || a.SuccessProb != b.SuccessProb {
			t.Fatalf("seed %d: outcomes diverge: %+v vs %+v", seed, a, b)
		}
	}
}

// TestFrameChannelErasureRateTracksProbability checks that the frame
// tier's per-seed draws deliver at the rate its closed-form success
// probability claims.
func TestFrameChannelErasureRateTracksProbability(t *testing.T) {
	ch := frameTier(t, 1)
	const trials = 20000
	delivered := 0
	var prob float64
	for seed := uint64(0); seed < trials; seed++ {
		out := deliverLen(t, ch, 40, 2420, 2, seed)
		prob = out.SuccessProb
		if out.Delivered() {
			delivered++
		}
	}
	if prob <= 0 || prob >= 1 {
		t.Fatalf("success prob %g not in the mixed regime; pick a different SNR", prob)
	}
	got := float64(delivered) / trials
	// Binomial std dev ~ sqrt(p(1-p)/n); allow 5 sigma.
	tol := 5 * math.Sqrt(prob*(1-prob)/trials)
	if math.Abs(got-prob) > tol {
		t.Errorf("delivered rate %.4f vs model prob %.4f (tol %.4f)", got, prob, tol)
	}
}

// TestSymbolCorrectProbTable pins the despreader-consistency invariants
// of the frame tier's per-symbol decode table: up to half the minimum
// codeword distance always decodes, and more chip errors never help.
func TestSymbolCorrectProbTable(t *testing.T) {
	p := symbolCorrectProbTable()
	for k := 0; k <= 5; k++ {
		if p[k] != 1 {
			t.Errorf("P[decode | %d chip errors] = %g, want 1 (min codeword distance 12)", k, p[k])
		}
	}
	for k := 7; k <= 16; k++ {
		if p[k] > p[k-1]+0.02 { // Monte-Carlo jitter margin
			t.Errorf("P[decode | %d errors] = %g above P[decode | %d] = %g", k, p[k], k-1, p[k-1])
		}
	}
	if p[16] > 0.5 {
		t.Errorf("P[decode | 16 errors] = %g, want near-random despreading", p[16])
	}
}

// TestFrameChannelDeliverAllocFree gates the frame tier's hot path at
// zero allocations per in-band delivery, delivered or erased.
func TestFrameChannelDeliverAllocFree(t *testing.T) {
	ch := frameTier(t, 1)
	spec := FrameSpec{PSDULen: 40, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: Link{SNRdB: 2}}
	deliver := func() {
		spec.Seed++
		if _, err := ch.Deliver(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		deliver() // both outcomes occur at 2 dB: resolve every counter
	}
	if allocs := testing.AllocsPerRun(1000, deliver); allocs != 0 {
		t.Errorf("frame-tier Deliver allocates %.2f times per frame, want 0", allocs)
	}
}

// TestTierCountersMatchOutcomes checks the symbol and frame tiers count
// into the registry the medium held when the channel was built: no
// series before the first delivery, then per-path burst and erasure
// counts equal to the outcomes Deliver returned.
func TestTierCountersMatchOutcomes(t *testing.T) {
	for _, tc := range []struct {
		f    Fidelity
		tier string
	}{{FidelitySymbol, "symbol"}, {FidelityFrame, "virtual"}} {
		m, err := NewMedium(16e6, 1)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m.Obs = reg
		ch, err := m.Channel(tc.f, ChannelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m.Obs = nil // the channel keeps the registry it was built with
		if n := len(reg.Snapshot()); n != 0 {
			t.Fatalf("%v: %d series before any delivery", tc.f, n)
		}
		var inBand, outOfBand, erased uint64
		for seed := uint64(0); seed < 600; seed++ {
			rx := 2420.0
			if seed%5 == 0 {
				rx = 2470
			}
			out := deliverLen(t, ch, 30, rx, 1.5, seed)
			switch {
			case !out.InBand:
				outOfBand++
			case !out.Delivered():
				erased++
			}
			// The symbol tier counts every frame it despreads to the
			// end as an in-band burst, corrupt or not; the frame tier
			// only the frames it delivers.
			if (tc.f == FidelitySymbol && out.Received()) || (tc.f == FidelityFrame && out.Delivered()) {
				inBand++
			}
		}
		if inBand == 0 || erased == 0 {
			t.Fatalf("%v: in-band %d, erased %d: pick an SNR where both occur", tc.f, inBand, erased)
		}
		for _, c := range []struct {
			name   string
			labels []string
			want   uint64
		}{
			{"wazabee_medium_bursts_total", []string{"path", tc.tier + "_in_band"}, inBand},
			{"wazabee_medium_bursts_total", []string{"path", tc.tier + "_out_of_band"}, outOfBand},
			{"wazabee_medium_" + tc.tier + "_erased_total", nil, erased},
		} {
			if got := reg.Counter(c.name, c.labels...).Value(); got != c.want {
				t.Errorf("%v: %s%v = %d, want %d", tc.f, c.name, c.labels, got, c.want)
			}
		}
		if n := len(reg.Snapshot()); n != 3 {
			t.Errorf("%v: registry holds %d series, want the 3 tier counters", tc.f, n)
		}
	}
}
