package campaign

import (
	"math"
	"testing"
)

// rectifiedMoments returns the mean and standard deviation of max(X, 0)
// for X ~ N(mu, sigma): the distribution draw produces once it clamps
// the rare negative soft EVM of the widened native population.
func rectifiedMoments(mu, sigma float64) (mean, sd float64) {
	a := mu / sigma
	phi := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi)
	cdf := 0.5 * math.Erfc(-a/math.Sqrt2)
	mean = mu*cdf + sigma*phi
	second := (mu*mu+sigma*sigma)*cdf + mu*sigma*phi
	return mean, math.Sqrt(second - mean*mean)
}

// TestEVMModelDistribution checks the per-frame sampler against the
// constants it encodes: each population's soft-EVM mean and spread
// (widened below the SNR knee), the framing-catch rate, independence of
// the framing coin from the EVM draw, and an allocation-free draw.
func TestEVMModelDistribution(t *testing.T) {
	const keys = 20000
	for _, snr := range []float64{25, 6} {
		m := newEVMModel(11, snr)
		for _, diverted := range []bool{false, true} {
			mu, sigma := nativeEVMMean, nativeEVMSigma
			if diverted {
				mu, sigma = divertedEVMMean, divertedEVMSigma
			}
			if snr < evmSNRKnee {
				widen := (evmSNRKnee - snr) * evmLowSNRWiden
				sigma += widen
				if !diverted {
					mu += widen
				}
			}
			wantMean, wantSD := rectifiedMoments(mu, sigma)

			var sum, sumSq, framedSum float64
			framed := 0
			for seq := uint64(0); seq < keys; seq++ {
				evm, seen := m.draw(seq, diverted, diverted)
				if evm < 0 || math.IsNaN(evm) {
					t.Fatalf("snr %g diverted %v seq %d: evm %v", snr, diverted, seq, evm)
				}
				if seen && !diverted {
					t.Fatalf("framing seen on an unframed frame (seq %d)", seq)
				}
				sum += evm
				sumSq += evm * evm
				if seen {
					framed++
					framedSum += evm
				}
			}
			n := float64(keys)
			mean := sum / n
			sd := math.Sqrt(sumSq/n - mean*mean)
			if se := wantSD / math.Sqrt(n); math.Abs(mean-wantMean) > 3*se {
				t.Errorf("snr %g diverted %v: mean %.5f, want %.5f ± %.5f", snr, diverted, mean, wantMean, 3*se)
			}
			if se := wantSD / math.Sqrt(2*n); math.Abs(sd-wantSD) > 3*se {
				t.Errorf("snr %g diverted %v: sd %.5f, want %.5f ± %.5f", snr, diverted, sd, wantSD, 3*se)
			}
			if !diverted {
				continue
			}

			// The 99.9% Wilson interval of the observed framing rate must
			// cover the modelled catch probability.
			const z = 3.2905
			p := float64(framed) / n
			centre := (p + z*z/(2*n)) / (1 + z*z/n)
			half := z / (1 + z*z/n) * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
			if framingDetectProb < centre-half || framingDetectProb > centre+half {
				t.Errorf("snr %g: framing rate %.4f, 99.9%% interval [%.4f, %.4f] misses %.2f",
					snr, p, centre-half, centre+half, framingDetectProb)
			}
			// Pearson r between the framing indicator and the EVM draw.
			cov := framedSum/n - p*mean
			if r := cov / (sd * math.Sqrt(p*(1-p))); math.Abs(r) >= 0.03 {
				t.Errorf("snr %g: framing coin correlates with EVM, r = %.4f", snr, r)
			}
		}
	}

	m := newEVMModel(11, 6)
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		seq++
		m.draw(seq, seq%2 == 0, true)
	}); allocs != 0 {
		t.Errorf("draw allocates %.1f times per frame", allocs)
	}
}
