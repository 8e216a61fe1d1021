package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// units maps every metric of one list of BENCHMARK.json to its unit.
func units(list []metricEntry) map[string]string {
	m := map[string]string{}
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

func TestTableMatchesBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
}

// runResult runs the program once and decodes its last output line.
func runResult(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	if code != 0 || !res.Correct {
		t.Errorf("%v: exit %d, correct %v: %s", args, code, res.Correct, errOut.String())
	}
	return res, out.String()
}

// TestEveryMetricEmitted runs each workload briefly in both modes and
// checks the result carries exactly the metrics and units of
// BENCHMARK.json.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		for trace, want := range []map[string]string{units(f.EndToEnd), units(f.PerLayer)} {
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
			res, out := runResult(t, args...)
			if res.Attempted < 1 {
				t.Errorf("%v: attempted %d", args, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, name, got, unit)
				}
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%v: end-to-end metric %s = %g, want > 0", args, name, m.Value)
					}
				}
			}
			if !strings.Contains(out, `"gomaxprocs"`) {
				t.Errorf("%v: no environment report in output", args)
			}
		}
	}
}

// TestChecksCatchCorruptInput corrupts one input of each workload and
// expects the output checks to report failures.
func TestChecksCatchCorruptInput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const once = time.Nanosecond // one window of work
	cases := []struct {
		name    string
		corrupt func(t *testing.T, w workload)
	}{
		{"pivot-link", func(t *testing.T, w workload) {
			// What the checks expect no longer matches what is sent.
			for _, f := range w.(*pivotLink).frames {
				f.psdu[len(f.psdu)-3] ^= 0xff
			}
		}},
		{"sniff", func(t *testing.T, w workload) {
			for _, c := range w.(*sniff).caps {
				c.psdu[len(c.psdu)-3] ^= 0xff
			}
		}},
		{"mesh", func(t *testing.T, w workload) {
			// Record a reference repeat of every seed, then change the
			// topology under the same seeds.
			for i := 0; i < meshSeeds; i++ {
				if o := w.measure(once, false); o.failed != 0 {
					t.Fatalf("clean repeat failed: %v", o.failures)
				}
			}
			m := w.(*mesh)
			m.topo.Nodes = m.topo.Nodes[:len(m.topo.Nodes)-1]
		}},
		{"campaign", func(t *testing.T, w workload) {
			if o := w.measure(once, false); o.failed != 0 {
				t.Fatalf("clean matrix failed: %v", o.failures)
			}
			w.(*campaignWL).spec.Seed++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads[tc.name](3)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, w)
			if o := w.measure(once, false); o.failed == 0 {
				t.Errorf("corrupted input passed every check (%d attempted)", o.attempted)
			}
		})
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.begin("outer")
	time.Sleep(2 * time.Millisecond)
	tr.begin("inner")
	time.Sleep(4 * time.Millisecond)
	tr.end()
	tr.end()
	outer, inner := tr.rows["outer"], tr.rows["inner"]
	if outer.self+inner.self != outer.total {
		t.Errorf("self times %v + %v do not add up to the outer span %v", outer.self, inner.self, outer.total)
	}
	if inner.self < 4*time.Millisecond || outer.self < 2*time.Millisecond || outer.self >= outer.total {
		t.Errorf("outer self %v, inner self %v", outer.self, inner.self)
	}
	if tr.selfSum() != outer.total {
		t.Errorf("selfSum %v, want the outer span %v", tr.selfSum(), outer.total)
	}

	off := newTracer(false)
	off.begin("x")
	off.end()
	if len(off.rows) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %g, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); got < 4.9 || got > 5 {
		t.Errorf("p99 %g", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile %g", got)
	}
}
