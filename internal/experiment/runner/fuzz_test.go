package runner

import (
	"encoding/json"
	"testing"
)

// FuzzCheckpointDecode drives the untrusted-input path of checkpoint
// resume: whatever bytes land in the file — corruption, truncation,
// future versions, hostile values — DecodeCheckpoint must either return
// a descriptive error or a structurally valid checkpoint, never panic.
func FuzzCheckpointDecode(f *testing.F) {
	spec := Spec{Name: "fuzz", Seed: 3, Points: []Point{{Key: "p", Trials: 4}}, ShardSize: 2, Classes: []string{"ok"}, Values: []string{"v"}}
	valid, err := json.Marshal(&Checkpoint{
		Version:     CheckpointVersion,
		Spec:        spec.Name,
		Seed:        spec.Seed,
		Fingerprint: fingerprint(&spec),
		Shards: []ShardRecord{
			{Point: "p", Start: 0, End: 2, Counts: map[string]int{"ok": 2}, Sums: []float64{0.5}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":2,"shards":[{"point":"p","start":-9,"end":0}]}`))
	f.Add([]byte(`{"version":2,"shards":[{"point":"p","start":0,"end":9007199254740993,"counts":{"ok":-5}}]}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty rejection message")
			}
			return
		}
		// Accepted checkpoints must uphold the invariants resume relies
		// on; anything else means validation has a hole.
		if cp.Version <= 0 || cp.Version > CheckpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
		for _, s := range cp.Shards {
			if len(s.Sums) != len(cp.Shards[0].Sums) {
				t.Fatalf("accepted value-width mismatch in %+v", cp.Shards)
			}
			if s.Point == "" || s.Start < 0 || s.End <= s.Start {
				t.Fatalf("accepted invalid shard %+v", s)
			}
			total := 0
			for _, n := range s.Counts {
				if n < 0 {
					t.Fatalf("accepted negative count in %+v", s)
				}
				total += n
			}
			if total != s.End-s.Start {
				t.Fatalf("accepted tally mismatch in %+v", s)
			}
		}
	})
}
