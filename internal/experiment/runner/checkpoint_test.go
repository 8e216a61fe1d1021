package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validCheckpointBytes(t *testing.T) []byte {
	t.Helper()
	spec := Spec{Name: "cp", Seed: 5, Points: []Point{{Key: "p", Trials: 4}}, ShardSize: 2, Classes: []string{"ok", "bad"}, Values: []string{"v"}}
	cp := Checkpoint{
		Version:     CheckpointVersion,
		Spec:        spec.Name,
		Seed:        spec.Seed,
		Fingerprint: fingerprint(&spec),
		Shards: []ShardRecord{
			{Point: "p", Start: 0, End: 2, Counts: map[string]int{"ok": 2}, Sums: []float64{1.5}},
			{Point: "p", Start: 2, End: 4, Counts: map[string]int{"ok": 1, "bad": 1}, Sums: []float64{0.25}},
		},
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeCheckpointRoundTrip(t *testing.T) {
	cp, err := DecodeCheckpoint(validCheckpointBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion || len(cp.Shards) != 2 {
		t.Fatalf("decoded %+v", cp)
	}
	if cp.Shards[0].Sums[0] != 1.5 || cp.Shards[1].Counts["bad"] != 1 {
		t.Fatalf("shard payload lost: %+v", cp.Shards)
	}
}

func TestDecodeCheckpointRejections(t *testing.T) {
	valid := validCheckpointBytes(t)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "corrupt"},
		{"truncated", valid[:len(valid)/2], "corrupt"},
		{"not json", []byte("definitely not json"), "corrupt"},
		{"no version", []byte(`{"shards":[]}`), "version"},
		{"future version", []byte(`{"version":99}`), "newer than supported"},
		{"scalar-sum version", []byte(`{"version":1,"shards":[]}`), "predates"},
		{"empty point key", []byte(`{"version":2,"shards":[{"point":"","start":0,"end":2}]}`), "no point key"},
		{"inverted range", []byte(`{"version":2,"shards":[{"point":"p","start":3,"end":1}]}`), "invalid trial range"},
		{"negative start", []byte(`{"version":2,"shards":[{"point":"p","start":-1,"end":1}]}`), "invalid trial range"},
		{"negative count", []byte(`{"version":2,"shards":[{"point":"p","start":0,"end":1,"counts":{"ok":-1}}]}`), "class"},
		{"count mismatch", []byte(`{"version":2,"shards":[{"point":"p","start":0,"end":4,"counts":{"ok":1}}]}`), "tallies"},
		{"value width mismatch", []byte(`{"version":2,"shards":[{"point":"p","start":0,"end":1,"counts":{"ok":1},"sums":[1,2]},{"point":"p","start":1,"end":2,"counts":{"ok":1},"sums":[3]}]}`), "value sums"},
	}
	for _, tc := range cases {
		_, err := DecodeCheckpoint(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	spec := Spec{Name: "sl", Seed: 7, Points: []Point{{Key: "a", Trials: 3}, {Key: "b", Trials: 3}}, ShardSize: 3, Classes: []string{"ok"}, Values: []string{"v"}}
	path := filepath.Join(t.TempDir(), "cp.json")

	// Missing file is a fresh start, not an error.
	cp, err := loadCheckpoint(path, &spec)
	if err != nil || cp != nil {
		t.Fatalf("missing checkpoint: cp=%v err=%v", cp, err)
	}

	records := []ShardRecord{
		{Point: "b", Start: 0, End: 3, Counts: map[string]int{"ok": 3}, Sums: []float64{0}},
		{Point: "a", Start: 0, End: 3, Counts: map[string]int{"ok": 3}, Sums: []float64{2}},
	}
	if err := saveCheckpoint(path, &spec, records); err != nil {
		t.Fatal(err)
	}
	cp, err = loadCheckpoint(path, &spec)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: point key, then start.
	if cp.Shards[0].Point != "a" || cp.Shards[1].Point != "b" {
		t.Errorf("shards not in canonical order: %+v", cp.Shards)
	}
	if cp.Shards[0].Sums[0] != 2 {
		t.Errorf("sum lost on round trip: %+v", cp.Shards[0])
	}

	// A spec with different points must refuse the file.
	other := spec
	other.Points = []Point{{Key: "a", Trials: 6}}
	if _, err := loadCheckpoint(path, &other); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}

	// Corrupt file on disk surfaces the decode error with the path.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path, &spec); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("corrupt checkpoint error does not name the file: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Name: "fp", Seed: 1, Points: []Point{{Key: "a", Trials: 10}}, ShardSize: 4, Classes: []string{"ok"}}
	fp := fingerprint(&base)
	mutations := map[string]Spec{
		"seed":       {Name: "fp", Seed: 2, Points: base.Points, ShardSize: 4, Classes: base.Classes},
		"name":       {Name: "fq", Seed: 1, Points: base.Points, ShardSize: 4, Classes: base.Classes},
		"shard size": {Name: "fp", Seed: 1, Points: base.Points, ShardSize: 5, Classes: base.Classes},
		"trials":     {Name: "fp", Seed: 1, Points: []Point{{Key: "a", Trials: 11}}, ShardSize: 4, Classes: base.Classes},
		"point key":  {Name: "fp", Seed: 1, Points: []Point{{Key: "b", Trials: 10}}, ShardSize: 4, Classes: base.Classes},
		"classes":    {Name: "fp", Seed: 1, Points: base.Points, ShardSize: 4, Classes: []string{"ok", "bad"}},
		"values":     {Name: "fp", Seed: 1, Points: base.Points, ShardSize: 4, Classes: base.Classes, Values: []string{"v"}},
	}
	for what, m := range mutations {
		if fingerprint(&m) == fp {
			t.Errorf("fingerprint blind to %s change", what)
		}
	}
	same := base
	if fingerprint(&same) != fp {
		t.Error("fingerprint not stable")
	}
}
