// Command perfbench is the repository's benchmark: one process runs one
// workload against the program's public entry points, checks every answer,
// and prints its metrics as the last line of standard output.
//
//	bash perfbench/run.sh --workload games --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload through the benchmark's own decomposition of each entry
// point, with a span around every call into a layer, and reports the
// per-layer metrics. README.md lists the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// qps is the offered rate of the serve workload and sloMS its latency
	// limit. BENCHMARK.json freezes both in the command line.
	qps, sloMS float64
}

// outcome is what a workload measured.
type outcome struct {
	setup     []time.Duration // one per set-up repetition
	attempted int64
	failed    int64
	good      int64           // ops that count toward ops_per_s
	elapsed   time.Duration   // measured window; ops_per_s is good over it
	lat       []time.Duration // per request, or per cycle: its mean op latency
	// rssMB is the peak resident set the workload reports; 0 means the
	// process's own peak.
	rssMB float64
	win   windowDelta // program counters over the measured window
	tr    *tracer     // traced runs only
	// untracedOp is the mean op time of an untraced pass in the same
	// process at the same concurrency, for the tracing overhead.
	untracedOp time.Duration
	layer      map[string]float64 // per-layer metrics the workload derives itself
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"games": runGames,
	"fig13": runFig13,
	"serve": runServe,
	"coevo": runCoevo,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: games, fig13, serve or coevo")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced decomposition and reports per-layer metrics")
	flag.Float64Var(&o.qps, "qps", 0, "offered rate of the serve workload, requests per second")
	flag.Float64Var(&o.sloMS, "slo-ms", 0, "latency limit of the serve workload, milliseconds")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and turns its outcome into the result line,
// writing the stamp and the attribution summary to log.
func run(o options, log io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have games, fig13, serve, coevo)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	out, err := w(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", o.workload)
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		res.Metrics = perLayer(out)
	} else {
		res.Metrics = endToEnd(out)
	}
	fmt.Fprintf(log, "perfbench %s seed=%d trace=%v %s\n", o.workload, o.seed, o.trace, stamp())
	fmt.Fprintf(log, "  ops attempted=%d failed=%d window=%.3fs set-ups=%d median=%v\n",
		out.attempted, out.failed, out.elapsed.Seconds(), len(out.setup), medianDur(out.setup))
	if out.tr != nil {
		writeAttribution(log, out)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// endToEnd derives the metrics a user of the system sees.
func endToEnd(out *outcome) map[string]metric {
	rss := out.rssMB
	if rss == 0 {
		rss = peakRSSMB()
	}
	return map[string]metric{
		"setup_s":     {medianDur(out.setup).Seconds(), "s"},
		"peak_rss_mb": {rss, "MB"},
		"ops_per_s":   {float64(out.good) / out.elapsed.Seconds(), "1/s"},
		"p50_ms":      {quantileMS(out.lat, 0.5), "ms"},
		"p90_ms":      {quantileMS(out.lat, 0.9), "ms"},
	}
}

// layerMetrics names every per-layer metric with its unit. Every traced run
// prints all of them; a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"minic.compile_ms", "ms"}, {"minic.compile_calls", "count"}, {"minic.kb_per_s", "KB/s"},
	{"progcache.hit_ratio", "ratio"}, {"progcache.untrusted_hit_ratio", "ratio"},
	{"progcache.untrusted_evictions", "count"}, {"progcache.thaw_ms", "ms"},
	{"ir.flatten_ms", "ms"}, {"ir.instrs_per_module", "count"},
	{"passes.optimize_ms", "ms"}, {"passes.optimize_calls", "count"}, {"passes.shrink_ratio", "ratio"},
	{"obfus.apply_ms", "ms"}, {"obfus.growth_ratio", "ratio"},
	{"srcobf.transform_ms", "ms"}, {"srcobf.evolve_ms", "ms"},
	{"embed.vec_ms", "ms"}, {"embed.graph_ms", "ms"}, {"embed.calls", "count"},
	{"ml.fit_ms", "ms"}, {"ml.fit_graph_ms", "ms"}, {"ml.predict_ms", "ms"},
	{"ml.fit_speedup_nproc", "ratio"}, {"ml.warm_fit_ms", "ms"},
	{"vm.compile_ms", "ms"}, {"vm.run_ms", "ms"}, {"vm.steps", "count"}, {"vm.msteps_per_s", "1/s"},
	{"serve.handler_ms.histogram", "ms"}, {"serve.handler_ms.source", "ms"}, {"serve.handler_ms.transform", "ms"},
	{"serve.transport_ms", "ms"}, {"serve.conn_wait_ms", "ms"}, {"serve.batch_size_mean", "count"},
	{"serve.swap_ms", "ms"}, {"serve.rejected", "count"}, {"serve.timeouts", "count"}, {"serve.slo_ratio", "ratio"},
	{"loadgen.lag_ms", "ms"},
	{"coevo.evasion_rate", "ratio"}, {"coevo.rollbacks", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_pause_ms", "ms"},
	{"core.e2e_ms", "ms"}, {"core.layer_sum_ms", "ms"}, {"core.unexplained_ms", "ms"},
	{"core.tracing_overhead", "ratio"},
}

// spanMetrics maps the per-layer time and count metrics to the span whose
// self time (per op) or call count (per op) they report.
var spanMetrics = map[string]string{
	"minic.compile_ms":    "minic.compile",
	"progcache.thaw_ms":   "progcache.thaw",
	"ir.flatten_ms":       "ir.flatten",
	"passes.optimize_ms":  "passes.optimize",
	"obfus.apply_ms":      "obfus.apply",
	"srcobf.transform_ms": "srcobf.transform",
	"srcobf.evolve_ms":    "srcobf.evolve",
	"embed.vec_ms":        "embed.vec",
	"embed.graph_ms":      "embed.graph",
	"ml.fit_ms":           "ml.fit",
	"ml.fit_graph_ms":     "ml.fit_graph",
	"ml.predict_ms":       "ml.predict",
	"ml.warm_fit_ms":      "ml.warm_fit",
	"vm.compile_ms":       "vm.compile",
	"vm.run_ms":           "vm.run",
}

// perLayer derives the traced run's metrics. Times and counts are per
// workload op (a round, a suite, a request or a generation), so runs of
// different lengths compare.
func perLayer(out *outcome) map[string]metric {
	tr := out.tr
	ops := float64(tr.ops)
	vals := map[string]float64{}
	for name, span := range spanMetrics {
		vals[name] = ms(tr.self[span]) / ops
	}
	vals["minic.compile_calls"] = float64(tr.calls["minic.compile"]) / ops
	if d := tr.self["minic.compile"]; d > 0 {
		vals["minic.kb_per_s"] = tr.counts["minic.bytes"] / 1024 / d.Seconds()
	}
	if n := tr.calls["ir.flatten"]; n > 0 {
		vals["ir.instrs_per_module"] = tr.counts["ir.instrs"] / float64(n)
	}
	vals["passes.optimize_calls"] = float64(tr.calls["passes.optimize"]) / ops
	vals["passes.shrink_ratio"] = ratio(tr.counts["passes.instrs_out"], tr.counts["passes.instrs_in"])
	vals["obfus.growth_ratio"] = ratio(tr.counts["obfus.instrs_out"], tr.counts["obfus.instrs_in"])
	vals["embed.calls"] = float64(tr.calls["embed.vec"]+tr.calls["embed.graph"]) / ops
	vals["vm.steps"] = tr.counts["vm.steps"] / ops
	if d := tr.self["vm.run"]; d > 0 {
		vals["vm.msteps_per_s"] = tr.counts["vm.steps"] / 1e6 / d.Seconds()
	}
	// The window's counters cover every op in it, traced or not.
	w, wops := out.win, float64(out.attempted)
	vals["progcache.hit_ratio"] = ratio(float64(w.pc.Hits), float64(w.pc.Hits+w.pc.Misses))
	vals["progcache.untrusted_hit_ratio"] = ratio(float64(w.pc.UntrustedHits), float64(w.pc.UntrustedHits+w.pc.UntrustedMisses))
	vals["progcache.untrusted_evictions"] = float64(w.pc.UntrustedEvicted) / wops
	vals["runtime.alloc_mb"] = float64(w.allocBytes) / (1 << 20) / wops
	vals["runtime.gc_pause_ms"] = ms(w.gcPause) / wops
	e2e, sum := tr.opTime, tr.selfSum()
	vals["core.e2e_ms"] = ms(e2e) / ops
	vals["core.layer_sum_ms"] = ms(sum) / ops
	vals["core.unexplained_ms"] = ms(e2e-sum) / ops
	if out.untracedOp > 0 {
		vals["core.tracing_overhead"] = (ms(e2e) / ops) / ms(out.untracedOp)
	}
	for k, v := range out.layer {
		vals[k] = v
	}
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return m
}

// writeAttribution prints, per layer, the self time per op and its share of
// the traced end-to-end op time, then the remainder and the overhead.
func writeAttribution(log io.Writer, out *outcome) {
	tr := out.tr
	ops := float64(tr.ops)
	e2e := ms(tr.opTime) / ops
	fmt.Fprintf(log, "  attribution over %d traced ops: end-to-end %.3f ms/op\n", tr.ops, e2e)
	layers := tr.layerSelf()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	sum := 0.0
	for _, n := range names {
		v := ms(layers[n]) / ops
		sum += v
		fmt.Fprintf(log, "    %-12s %10.3f ms/op %6.1f%%\n", n, v, 100*v/e2e)
	}
	fmt.Fprintf(log, "    %-12s %10.3f ms/op\n", "layer sum", sum)
	fmt.Fprintf(log, "    %-12s %10.3f ms/op %6.1f%%\n", "unexplained", e2e-sum, 100*(e2e-sum)/e2e)
	if out.untracedOp > 0 {
		fmt.Fprintf(log, "    tracing overhead: traced %.3f ms/op vs untraced %.3f ms/op (x%.3f)\n",
			e2e, ms(out.untracedOp), e2e/ms(out.untracedOp))
	}
}

// nproc bounds the benchmark's worker goroutines and client connections.
func nproc() int { return runtime.NumCPU() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
