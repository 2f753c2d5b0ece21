package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/progcache"
	"repro/internal/serve"
	"repro/internal/stats"
)

// cmdServe stands up the HTTP classification service on trained model
// snapshots. Snapshots live as <dir>/<model>.snap; any requested model
// without one is trained on a generated dataset and saved, so a cold start
// is self-contained:
//
//	arena serve -addr 127.0.0.1:8080 -snapshots runs/snap -models rf,lr
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	snapDir := fs.String("snapshots", "snapshots", "directory of <model>.snap files (missing ones are trained and saved here)")
	models := fs.String("models", "rf,lr", "comma-separated vector models to serve")
	embedding := fs.String("embedding", "histogram", "vector embedding for source-bearing requests (must match training)")
	classes := fs.Int("classes", 8, "problem classes when training missing snapshots")
	per := fs.Int("per", 12, "solutions per class when training missing snapshots")
	seed := fs.Int64("seed", 1, "training seed for missing snapshots")
	maxInFlight := fs.Int("max-inflight", 128, "admitted requests before the server answers 429")
	maxBatch := fs.Int("max-batch", 32, "max classify requests coalesced into one batched predict pass")
	window := fs.Duration("batch-window", 2*time.Millisecond, "how long a batch waits to fill after its first request")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline (504 past it)")
	verbose := fs.Bool("v", false, "print the obs footer after shutdown")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := splitNames(*models)
	if len(names) == 0 {
		return fmt.Errorf("serve: -models is empty")
	}
	rec, err := o.begin("serve", fs, *seed, *verbose)
	if err != nil {
		return err
	}

	loaded, lineage, err := loadOrTrainSnapshots(*snapDir, names, *embedding, *classes, *per, *seed)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Models:         loaded,
		Lineage:        lineage,
		Embedding:      *embedding,
		MaxInFlight:    *maxInFlight,
		MaxBatch:       *maxBatch,
		BatchWindow:    *window,
		RequestTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving %s on http://%s (POST /v1/classify /v1/transform, GET /healthz /metricz)\n",
		strings.Join(names, ","), bound)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "drained")
	return rec.finish()
}

// loadOrTrainSnapshots loads each model from dir/<name>.snap, training and
// saving the missing ones in a single deterministic pass. The second return
// carries the lineage stamps found in pre-existing snapshot files (arena
// checkpoints carry them; root and freshly trained snapshots do not), so a
// replica booted on a co-evolution checkpoint reports its ancestry from the
// first /healthz.
func loadOrTrainSnapshots(dir string, names []string, embedding string, classes, per int, seed int64) (map[string]ml.Model, map[string]ml.Lineage, error) {
	loaded := make(map[string]ml.Model, len(names))
	lineage := make(map[string]ml.Lineage)
	var missing []string
	for _, name := range names {
		path := filepath.Join(dir, name+".snap")
		m, lin, err := loadSnapshotFile(path)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "loaded snapshot %s\n", path)
			loaded[name] = m
			if lin != (ml.Lineage{}) {
				lineage[name] = lin
			}
		case os.IsNotExist(err):
			missing = append(missing, name)
		default:
			return nil, nil, fmt.Errorf("serve: snapshot %s: %w", path, err)
		}
	}
	if len(missing) == 0 {
		return loaded, lineage, nil
	}
	fmt.Fprintf(os.Stderr, "training missing snapshots %s (classes=%d per=%d seed=%d)\n",
		strings.Join(missing, ","), classes, per, seed)
	set, err := dataset.Generate(classes, per, seed)
	if err != nil {
		return nil, nil, err
	}
	trained, err := core.TrainVectorModels(set, embedding, missing, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, name := range missing {
		path := filepath.Join(dir, name+".snap")
		if err := ml.SaveFile(path, trained[name]); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", path)
		loaded[name] = trained[name]
	}
	return loaded, lineage, nil
}

// loadSnapshotFile is ml.LoadFile plus the frame's lineage stamp.
func loadSnapshotFile(path string) (ml.Model, ml.Lineage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ml.Lineage{}, err
	}
	defer f.Close()
	return ml.LoadLineage(f)
}

// cmdLoadgen offers classify load to a running server or gateway and
// reports latency quantiles and throughput; with -out the numbers land in a
// run manifest that `arena report` can diff against a baseline. -sweep runs
// one round per QPS value to cut a latency-under-load curve, and when the
// target is a gateway the manifest additionally carries per-replica
// p50/p90/p99 cells pulled from its /metricz.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server or gateway base URL")
	qps := fs.Int("qps", 50, "offered classify requests per second")
	sweep := fs.String("sweep", "", "comma-separated QPS list: one load round per value (overrides -qps)")
	dur := fs.Duration("dur", 5*time.Second, "how long to offer load per round")
	conc := fs.Int("conc", 4, "concurrent client workers (closed-loop mode)")
	open := fs.Bool("open", false, "open-loop arrivals: one goroutine per due request instead of a fixed pool")
	clientInflight := fs.Int("client-inflight", 1024, "open-loop cap on outstanding requests; arrivals past it count as dropped")
	wait := fs.Duration("wait", 0, "poll /healthz this long for the server to come up before starting")
	strict := fs.Bool("strict", false, "exit nonzero unless every request was answered 200 or shed with 429")
	models := fs.String("models", "", "comma-separated model subset per request (empty = all loaded)")
	embedding := fs.String("embedding", "histogram", "embedding for the payload vectors")
	classes := fs.Int("classes", 8, "problem classes for the payload corpus")
	per := fs.Int("per", 4, "solutions per class for the payload corpus")
	seed := fs.Int64("seed", 1, "corpus seed")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	qpsList := []int{*qps}
	if *sweep != "" {
		qpsList = nil
		for _, part := range strings.Split(*sweep, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || q <= 0 {
				return fmt.Errorf("loadgen: bad -sweep entry %q", part)
			}
			qpsList = append(qpsList, q)
		}
	}
	rec, err := o.begin("loadgen", fs, *seed, false)
	if err != nil {
		return err
	}

	set, err := dataset.Generate(*classes, *per, *seed)
	if err != nil {
		return err
	}
	vectors := make([][]float64, 0, len(set.Samples))
	for _, s := range set.Samples {
		v, err := core.EmbedSource(progcache.Default, s.Source, *embedding)
		if err != nil {
			return err
		}
		vectors = append(vectors, v)
	}

	base := strings.TrimRight(*addr, "/")
	w := newTable()
	fmt.Fprintf(w, "qps\toffered\tsent\tok\trejected\ttimeout\tdropped\terrors\tthroughput\tp50\tp90\tp99\n")
	var totalOK, totalLost int
	waitBudget := *wait
	for _, q := range qpsList {
		rep, err := serve.RunLoad(context.Background(), serve.LoadConfig{
			BaseURL:           base,
			QPS:               q,
			Duration:          *dur,
			Concurrency:       *conc,
			OpenLoop:          *open,
			MaxClientInFlight: *clientInflight,
			Vectors:           vectors,
			Models:            splitNames(*models),
			WaitReady:         waitBudget,
		})
		if err != nil {
			return err
		}
		waitBudget = 0 // only the first round waits for readiness

		p50, p90, p99 := rep.Quantile(0.50), rep.Quantile(0.90), rep.Quantile(0.99)
		fmt.Fprintf(w, "%d\t%.1f/s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f req/s\t%.2f ms\t%.2f ms\t%.2f ms\n",
			q, rep.OfferedQPS(), rep.Sent, rep.OK, rep.Rejected, rep.Timeout, rep.Dropped, rep.Errors,
			rep.Throughput(), p50, p90, p99)

		prefix := "loadgen"
		if len(qpsList) > 1 {
			prefix = fmt.Sprintf("loadgen/qps=%d", q)
		}
		rec.man.AddCell(prefix+"/p50_ms", "latency_ms", []float64{p50})
		rec.man.AddCell(prefix+"/p90_ms", "latency_ms", []float64{p90})
		rec.man.AddCell(prefix+"/p99_ms", "latency_ms", []float64{p99})
		rec.man.AddCell(prefix+"/throughput_rps", "throughput", []float64{rep.Throughput()})
		rec.man.AddCell(prefix+"/offered_qps", "throughput", []float64{rep.OfferedQPS()})
		rec.man.AddCell(prefix+"/target_qps", "throughput", []float64{float64(rep.TargetQPS)})
		rec.man.AddCell(prefix+"/ok", "count", []float64{float64(rep.OK)})
		rec.man.AddCell(prefix+"/rejected", "count", []float64{float64(rep.Rejected)})
		rec.man.AddSummaryCell(prefix+"/latency_ms", "latency_ms", stats.Summarize(rep.LatencyMS))
		totalOK += rep.OK
		totalLost += rep.Timeout + rep.Errors + rep.Dropped
	}
	w.Flush()

	addReplicaCells(rec, base)
	if err := rec.finish(); err != nil {
		return err
	}
	if totalOK == 0 {
		return fmt.Errorf("loadgen: no request succeeded")
	}
	if *strict && totalLost > 0 {
		return fmt.Errorf("loadgen: -strict: %d requests lost (timeout/error/dropped)", totalLost)
	}
	return nil
}

// addReplicaCells pulls the target's /metricz and surfaces the gateway's
// per-replica latency quantiles and request counters as manifest cells. A
// plain serve target publishes no gateway.replica.* series, so this is a
// silent no-op there (and on any scrape failure — the load numbers still
// stand on their own).
func addReplicaCells(rec *runRecorder, baseURL string) {
	resp, err := http.Get(baseURL + "/metricz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return
	}
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "gateway.replica.") && strings.HasSuffix(name, ".latency") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		id := strings.TrimSuffix(strings.TrimPrefix(name, "gateway."), ".latency") // "replica.<i>"
		toMS := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		rec.man.AddCell("gateway/"+id+"/p50_ms", "latency_ms", []float64{toMS(h.Quantile(0.50))})
		rec.man.AddCell("gateway/"+id+"/p90_ms", "latency_ms", []float64{toMS(h.Quantile(0.90))})
		rec.man.AddCell("gateway/"+id+"/p99_ms", "latency_ms", []float64{toMS(h.Quantile(0.99))})
		if c, ok := snap.Counters["gateway."+id+".requests"]; ok {
			rec.man.AddCell("gateway/"+id+"/requests", "count", []float64{float64(c)})
		}
	}
}

// splitNames parses a comma-separated name list into a sorted,
// de-duplicated slice, so flag order never changes training order (and
// with it the sub-seed each model draws).
func splitNames(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
