package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wazabee/internal/obs"
)

// TestRunnerHammer churns worker pools of every size over one shared
// registry — many concurrent sweeps, each with its own spec label — and
// checks exact counter accounting and cross-run determinism afterwards.
// It is the `make racerunner` workload: under -race it also proves the
// engine's shared state is properly synchronised.
func TestRunnerHammer(t *testing.T) {
	reg := obs.NewRegistry()
	const lanes = 6
	const runsPerLane = 3
	points := []Point{{Key: "a", Trials: 23}, {Key: "b", Trials: 41}}
	totalTrials := uint64(23 + 41)
	totalShards := uint64(6 + 11) // ceil(23/4) + ceil(41/4)

	results := make([][]byte, lanes*runsPerLane)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for n := 0; n < runsPerLane; n++ {
				spec := Spec{
					Name:      fmt.Sprintf("hammer-%d-%d", lane, n),
					Seed:      77,
					Points:    points,
					Workers:   1 + (lane+n)%8, // pool churn: every size 1..8
					ShardSize: 4,
					Classes:   []string{"ok", "bad"},
					Values:    []string{"v"},
					Obs:       reg,
				}
				res, err := Run(context.Background(), spec, coinTrial(0.5))
				if err != nil {
					t.Error(err)
					return
				}
				res.Name = "" // normalise for cross-run comparison
				data, err := json.Marshal(res)
				if err != nil {
					t.Error(err)
					return
				}
				results[lane*runsPerLane+n] = data
			}
		}(lane)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := 1; i < len(results); i++ {
		if string(results[i]) != string(results[0]) {
			t.Fatalf("run %d differs from run 0 under concurrency:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
	for lane := 0; lane < lanes; lane++ {
		for n := 0; n < runsPerLane; n++ {
			label := fmt.Sprintf("hammer-%d-%d", lane, n)
			if got := reg.Counter(TrialsMetric, "spec", label).Value(); got != totalTrials {
				t.Errorf("%s: trials = %d, want %d", label, got, totalTrials)
			}
			completed := reg.Counter(ShardsMetric, "spec", label, "state", "completed").Value()
			restored := reg.Counter(ShardsMetric, "spec", label, "state", "restored").Value()
			skipped := reg.Counter(ShardsMetric, "spec", label, "state", "skipped").Value()
			if completed != totalShards || restored != 0 || skipped != 0 {
				t.Errorf("%s: shard accounting completed %d restored %d skipped %d, want %d/0/0",
					label, completed, restored, skipped, totalShards)
			}
			if d := reg.Counter(DiscardedMetric, "spec", label).Value(); d != 0 {
				t.Errorf("%s: discarded = %d, want 0", label, d)
			}
		}
	}
}

// TestRunnerHammerCancellation races cancellation against the pool and
// checks that the shard dispositions still account for every shard
// exactly once: completed + restored + skipped == total, regardless of
// where the axe fell.
func TestRunnerHammerCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	const lanes = 4
	points := []Point{{Key: "a", Trials: 64}, {Key: "b", Trials: 64}}
	totalShards := uint64(16 + 16)

	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			label := fmt.Sprintf("axe-%d", lane)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var executed atomic.Int64
			trial := func(c context.Context, seed int64, p Point, i int) (Outcome, error) {
				if executed.Add(1) == int64(13+lane*7) {
					cancel()
				}
				return coinTrial(0.5)(c, seed, p, i)
			}
			_, err := Run(ctx, Spec{
				Name: label, Seed: 5, Points: points,
				Workers: 2 + lane, ShardSize: 4,
				Classes: []string{"ok", "bad"}, Values: []string{"v"}, Obs: reg,
			}, trial)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", label, err)
			}
		}(lane)
	}
	wg.Wait()

	for lane := 0; lane < lanes; lane++ {
		label := fmt.Sprintf("axe-%d", lane)
		completed := reg.Counter(ShardsMetric, "spec", label, "state", "completed").Value()
		restored := reg.Counter(ShardsMetric, "spec", label, "state", "restored").Value()
		skipped := reg.Counter(ShardsMetric, "spec", label, "state", "skipped").Value()
		if completed+restored+skipped != totalShards {
			t.Errorf("%s: dispositions %d+%d+%d != %d shards", label, completed, restored, skipped, totalShards)
		}
	}
}
