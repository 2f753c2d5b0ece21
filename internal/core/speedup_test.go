package core_test

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// TestSpeedupGolden pins the Figure-13 suite to the step counts the serial
// loop produced (testdata/speedup_vm_seed1.txt: name, O0, O3 and ollvm
// steps per kernel) at one and at four workers. It sets GOMAXPROCS, so it
// must not run in parallel with other tests.
func TestSpeedupGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/speedup_vm_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []core.SpeedupRow
	var o3s, slows []float64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("golden line %q: want a name and three step counts", line)
		}
		var steps [3]int64
		for i := range steps {
			if steps[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
				t.Fatalf("golden line %q: %v", line, err)
			}
		}
		want = append(want, core.SpeedupRow{Name: f[0], O0Steps: steps[0], O3Steps: steps[1], OllvmSteps: steps[2]})
		o3s = append(o3s, float64(steps[0])/float64(steps[1]))
		slows = append(slows, float64(steps[2])/float64(steps[0]))
	}
	wantO3, wantOllvm := stats.GeoMean(o3s), stats.GeoMean(slows)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := core.SpeedupEngine(1, "vm")
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(rep.Rows) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d rows, want %d", procs, len(rep.Rows), len(want))
		}
		for i, row := range rep.Rows {
			w := want[i]
			if row.Name != w.Name || row.O0Steps != w.O0Steps || row.O3Steps != w.O3Steps || row.OllvmSteps != w.OllvmSteps {
				t.Errorf("GOMAXPROCS=%d: row %d = %s %d %d %d, want %s %d %d %d", procs, i,
					row.Name, row.O0Steps, row.O3Steps, row.OllvmSteps, w.Name, w.O0Steps, w.O3Steps, w.OllvmSteps)
			}
		}
		if rep.GeoO3Speedup != wantO3 || rep.GeoOllvmSlowdown != wantOllvm {
			t.Errorf("GOMAXPROCS=%d: geomeans %v / %v, want %v / %v", procs,
				rep.GeoO3Speedup, rep.GeoOllvmSlowdown, wantO3, wantOllvm)
		}
	}
}

// TestEngineByName pins the two engine names and the error for anything
// else, the empty string included: it must name both valid engines.
func TestEngineByName(t *testing.T) {
	for _, tc := range []struct {
		name, want string // want is the resolved engine's Name, "" for an error
	}{
		{"tree", "tree"},
		{"vm", "vm"},
		{"", ""},
		{"warp-drive", ""},
	} {
		eng, err := core.EngineByName(tc.name)
		if tc.want != "" {
			if err != nil || eng.Name() != tc.want {
				t.Errorf("EngineByName(%q) = %v, %v; want engine %s", tc.name, eng, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "tree") || !strings.Contains(err.Error(), "vm") {
			t.Errorf("EngineByName(%q) error = %v; want one naming tree and vm", tc.name, err)
		}
	}
}
