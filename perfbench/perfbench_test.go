package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vm"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that each run emits exactly the metrics BENCHMARK.json
// names, with their units, after at least one op and no failed one.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.Name, seed: 1, seconds: 0.3, trace: trace, qps: 20, sloMS: 1000}
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
					t.Fatalf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", n, m.Unit, unit)
					}
				}
			})
		}
	}
}

// TestFig13CheckCatchesBrokenEngine swaps the deliberately miscompiling
// engine into the fig13 suite: its check must register failures, and the
// real VM none.
func TestFig13CheckCatchesBrokenEngine(t *testing.T) {
	kernels := dataset.BenchGame()[:3]
	tree, err := treeOracle(kernels)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad, err := suite(kernels, 1, tree, nil, nil); err != nil || bad != 0 {
		t.Fatalf("bytecode VM: %d bad runs, err %v", bad, err)
	}
	if _, bad, err := suite(kernels, 1, tree, vm.BrokenEngine(), nil); err != nil || bad == 0 {
		t.Fatalf("broken engine: %d bad runs, err %v; want failures", bad, err)
	}
}
