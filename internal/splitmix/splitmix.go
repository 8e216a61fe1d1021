// Package splitmix holds the repository's one SplitMix64 finaliser
// (Steele et al., "Fast splittable pseudorandom number generators"): a
// cheap invertible mixer whose output passes BigCrush. Every seed
// derivation in the repo — Monte-Carlo trial seeds, simulator node and
// delivery streams, calibration cells, the frame-tier channel's draws
// and the campaign's fingerprint model — folds structured coordinates
// through it, so adjacent coordinates land on unrelated streams.
package splitmix

// Gamma is the SplitMix64 increment (the golden-ratio odd constant).
const Gamma = 0x9e3779b97f4a7c15

// Mix returns the SplitMix64 output for state x: x advanced by Gamma,
// then finalised. Successive outputs of the generator seeded at s are
// Mix(s), Mix(s+Gamma), Mix(s+2*Gamma), ...
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
