package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/difftest"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/serve"
)

const (
	// servePool is the working set of client sources. An LRU keeps a pool
	// source resident while fewer than cap other sources are touched between
	// two uses of it; here about twice the pool size, well inside
	// progcache.DefaultUntrustedCap.
	servePool = 128
	// serveTriples is the number of (source, evader, seed) transform
	// requests the schedule cycles through.
	serveTriples = 32
	// swapEvery is the hot-swap schedule: one PUT of the lr snapshot.
	swapEvery = time.Second
	// kindHeader tells the traced run's middleware which request kind it
	// is timing; the server ignores it.
	kindHeader = "X-Perfbench-Kind"
)

var serveModels = []string{"lr", "rf"}

type reqKind int

const (
	kindHistogram reqKind = iota
	kindPool
	kindFresh
	kindTransform
	kindSwap
)

// handlerKind groups request kinds the way serve.handler_ms reports them.
func (k reqKind) handlerKind() string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindPool, kindFresh:
		return "source"
	case kindTransform:
		return "transform"
	}
	return "swap"
}

// request is one scheduled call with the answer it must get back.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte
	want   map[string]int // expected verdict per model
	exec   difftest.Obs   // expected execution (transform requests)
	srcLen int            // source bytes the server must compile (fresh requests)
	due    time.Duration  // offset from the start of its phase
}

// serveInputs are the requests a serve run draws from.
type serveInputs struct {
	hist      []request // pool programs as pre-embedded histograms
	pool      []request // pool programs as source
	fresh     []request // never-seen sources, each sent once
	transform []request // transform+execute requests
	nextFresh int
	// lrSnapshot is what every hot-swap pushes: the served lr model's own
	// snapshot, so a verdict never depends on which side of a swap its
	// batch ran.
	lrSnapshot []byte
}

// runServe drives an in-process serve.Server on 127.0.0.1 with an open loop
// at qps. Set-up trains the lr and rf snapshots and boots the server; a
// warm-up then fills the untrusted compile tier to its bound, so the
// measured phase runs at steady state: pool sources hit, and every fresh
// source misses and evicts the oldest entry. Every answer is checked:
// verdicts against the same snapshot's in-process Predict on the same
// vector, execution results against difftest.Oracle on the source.
func runServe(o options) (*outcome, error) {
	qps := o.qps
	if qps <= 0 || o.sloMS <= 0 {
		return nil, fmt.Errorf("the serve workload needs --qps and --slo-ms")
	}
	measure := seconds(o)
	var compare time.Duration // traced runs: an untraced pass for the overhead
	if o.trace {
		compare = measure / 3
	}
	fillers := progcache.DefaultUntrustedCap - servePool
	nFresh := fillers + freshSlots(qps, measure) + freshSlots(qps, compare)
	poolSrc, freshSrc, err := serveSources(corpusSeed, nFresh)
	if err != nil {
		return nil, err
	}

	var mw *handlerTimer
	wrap := func(h http.Handler) http.Handler { return h }
	if o.trace {
		wrap = func(h http.Handler) http.Handler {
			mw = &handlerTimer{next: h, sum: map[string]time.Duration{}, n: map[string]int64{}}
			return mw
		}
	}
	var models map[string]ml.Model
	var srv *liveServer
	defer func() {
		if srv != nil {
			_ = srv.stop()
		}
	}()
	setup, err := timeSetup(func() error {
		progcache.Reset()
		set, err := dataset.Generate(8, 12, corpusSeed)
		if err != nil {
			return err
		}
		if models, err = core.TrainVectorModels(set, "histogram", serveModels, corpusSeed); err != nil {
			return err
		}
		srv, err = startServer(models, wrap)
		return err
	}, func() error { return srv.stop() })
	if err != nil {
		return nil, err
	}

	in, err := buildInputs(models, poolSrc, freshSrc, corpusSeed)
	if err != nil {
		return nil, err
	}
	gen := newLoadgen(srv.base, nproc())
	defer gen.close()

	// Warm-up: the fillers first, then the pool and the transform sources,
	// so the pool is the most recently used part of the full tier.
	var warm []request
	for i := 0; i < fillers; i++ {
		warm = append(warm, in.takeFresh())
	}
	warm = append(warm, in.pool...)
	warm = append(warm, in.transform...)
	if res := gen.run(warm); res.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", res.failed(), len(warm))
	}

	rng := rand.New(rand.NewSource(o.seed))
	out := &outcome{setup: setup}
	if o.trace {
		cmp := gen.run(in.schedule(rng, qps, compare))
		if cmp.failed() > 0 {
			return nil, fmt.Errorf("untraced comparison pass: %d requests failed", cmp.failed())
		}
		out.untracedOp = cmp.meanLatency()
		mw.on.Store(true)
	}
	sched := in.schedule(rng, qps, measure)
	timers := captureTimers()
	win := openWindow()
	res := gen.run(sched)
	out.win = win.close()
	slo := time.Duration(o.sloMS * float64(time.Millisecond))
	for i := range res.samples {
		s := &res.samples[i]
		out.lat = append(out.lat, s.lat)
		out.attempted++
		if !s.good {
			out.failed++
		} else if s.lat <= slo {
			out.good++
		}
	}
	out.elapsed = res.elapsed
	if o.trace {
		out.tr, out.layer = serveAttribution(sched, res, mw, timers.since(), out.win, float64(out.good))
	}
	return out, nil
}

// freshSlots bounds the fresh-source requests a schedule of that length
// holds: three in every block of blockLen.
func freshSlots(qps float64, d time.Duration) int {
	n := int(qps * d.Seconds())
	return (n/blockLen + 1) * 3
}

// serveSources draws the pool and the fresh sources from datasets generated
// with later seeds: programs of the same kind as the training set, distinct
// from it and from each other. Generating pins them in the process-wide
// cache; set-up's progcache.Reset drops them again, so the server sees them
// only over the wire.
func serveSources(seed int64, nFresh int) (pool, fresh []string, err error) {
	train, err := dataset.Generate(8, 12, seed)
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	for _, s := range train.Samples {
		seen[s.Source] = true
	}
	var all []string
	for k := int64(1); len(all) < servePool+nFresh; k++ {
		set, err := dataset.Generate(8, 12, seed+k*104729)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range set.Samples {
			if !seen[s.Source] {
				seen[s.Source] = true
				all = append(all, s.Source)
			}
		}
	}
	return all[:servePool], all[servePool : servePool+nFresh], nil
}

// buildInputs marshals every request and computes its expected answer
// outside the server: the histogram straight from the front end, the
// verdict from the snapshot's own Predict, the execution result from the
// tree-interpreter oracle.
func buildInputs(models map[string]ml.Model, poolSrc, freshSrc []string, seed int64) (*serveInputs, error) {
	snap, err := snapshotRoundTrip(models["lr"], poolSrc)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{lrSnapshot: snap}
	classify := func(kind reqKind, src string) (request, error) {
		v, err := histogramOf(src, nil)
		if err != nil {
			return request{}, err
		}
		body := serve.ClassifyRequest{Source: src}
		if kind == kindHistogram {
			body = serve.ClassifyRequest{Histogram: v}
		}
		return newRequest(kind, "POST", "/v1/classify", body, verdicts(models, v))
	}
	for _, src := range poolSrc {
		for _, kind := range []reqKind{kindHistogram, kindPool} {
			r, err := classify(kind, src)
			if err != nil {
				return nil, err
			}
			if kind == kindHistogram {
				in.hist = append(in.hist, r)
			} else {
				in.pool = append(in.pool, r)
			}
		}
	}
	for _, src := range freshSrc {
		r, err := classify(kindFresh, src)
		if err != nil {
			return nil, err
		}
		r.srcLen = len(src)
		in.fresh = append(in.fresh, r)
	}
	rng := rand.New(rand.NewSource(seed))
	evaders := []string{"O3", "sub", "bcf", "fla"}
	for _, src := range poolSrc {
		if len(in.transform) == serveTriples {
			break
		}
		oracle, err := difftest.Oracle(src)
		if err != nil {
			return nil, err
		}
		// Programs that trap or run long would test the step budget, not
		// the serving path.
		if oracle.Trap != "" || oracle.Steps > 1<<18 {
			continue
		}
		ev := evaders[len(in.transform)%len(evaders)]
		s := rng.Int63()
		v, err := histogramOf(src, func(m *ir.Module) error { return applyEvader(m, ev, s) })
		if err != nil {
			return nil, err
		}
		r, err := newRequest(kindTransform, "POST", "/v1/transform",
			serve.TransformRequest{Source: src, Evader: ev, Seed: s, Execute: true}, verdicts(models, v))
		if err != nil {
			return nil, err
		}
		r.exec = oracle
		in.transform = append(in.transform, r)
	}
	if len(in.transform) < serveTriples {
		return nil, fmt.Errorf("only %d pool programs run cleanly; need %d", len(in.transform), serveTriples)
	}
	return in, nil
}

// snapshotRoundTrip returns m's snapshot after making sure a hot-swap of it
// cannot change a verdict: the reloaded model must predict exactly as the
// trained one on every pool program.
func snapshotRoundTrip(m ml.Model, srcs []string) ([]byte, error) {
	var buf bytes.Buffer
	if err := ml.Save(&buf, m); err != nil {
		return nil, err
	}
	loaded, err := ml.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		v, err := histogramOf(src, nil)
		if err != nil {
			return nil, err
		}
		if loaded.Predict(v) != m.Predict(v) {
			return nil, fmt.Errorf("lr snapshot round trip changes a verdict")
		}
	}
	return buf.Bytes(), nil
}

// histogramOf compiles src with the front end alone (no cache), applies
// transform if given, and returns the opcode histogram the server embeds.
func histogramOf(src string, transform func(*ir.Module) error) (embed.Vector, error) {
	m, err := minic.CompileSource(src, "prog")
	if err != nil {
		return nil, err
	}
	if transform != nil {
		if err := transform(m); err != nil {
			return nil, err
		}
	}
	return embed.HistogramFlat(ir.Flatten(m)), nil
}

// applyEvader is the module-level half of core.Transform.
func applyEvader(m *ir.Module, name string, seed int64) error {
	if name == "O3" {
		return passes.Optimize(m, passes.O3)
	}
	return obfus.Apply(m, name, rand.New(rand.NewSource(seed)))
}

func verdicts(models map[string]ml.Model, v []float64) map[string]int {
	out := make(map[string]int, len(models))
	for name, m := range models {
		out[name] = m.Predict(v)
	}
	return out
}

func newRequest(kind reqKind, method, path string, body any, want map[string]int) (request, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return request{}, err
	}
	return request{kind: kind, method: method, path: path, body: b, want: want}, nil
}

func (in *serveInputs) takeFresh() request {
	r := in.fresh[in.nextFresh]
	in.nextFresh++
	return r
}

// blockLen is one block of the request mix: 10 histogram, 3 pool-source,
// 3 fresh-source and 3 transform requests, i.e. 50:15:15:15.
const blockLen = 19

// schedule lays out an open-loop phase of length d at a constant rate: the
// request mix in seeded shuffled blocks, the pools visited round-robin from
// a seeded offset, and a hot-swap of the lr snapshot every swapEvery on
// top.
func (in *serveInputs) schedule(rng *rand.Rand, qps float64, d time.Duration) []request {
	n := int(qps * d.Seconds())
	off := rng.Intn(servePool)
	var out []request
	var block []reqKind
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			for k, c := range []int{10, 3, 3, 3} {
				for j := 0; j < c; j++ {
					block = append(block, reqKind(k))
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		var r request
		switch block[0] {
		case kindHistogram:
			r = in.hist[(i+off)%len(in.hist)]
		case kindPool:
			r = in.pool[(i+off)%len(in.pool)]
		case kindFresh:
			r = in.takeFresh()
		case kindTransform:
			r = in.transform[(i+off)%len(in.transform)]
		}
		block = block[1:]
		r.due = time.Duration(float64(i) / qps * float64(time.Second))
		out = append(out, r)
	}
	for t := swapEvery / 2; t < d; t += swapEvery {
		out = append(out, request{kind: kindSwap, method: "PUT", path: "/v1/models/lr", body: in.lrSnapshot, due: t})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// liveServer is one booted server and the HTTP listener in front of it.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startServer(models map[string]ml.Model, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	srv, err := serve.New(serve.Config{Models: models, Engine: "vm"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:  srv,
		http: &http.Server{Handler: wrap(srv.Handler())},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	probe := &http.Client{Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(s.base + "/healthz")
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = s.stop()
		return nil, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return s, nil
}

// stop drains the listener and the server and waits for both.
func (s *liveServer) stop() error {
	if s.done == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	s.done = nil
	return err
}

// handlerTimer times Handler().ServeHTTP in process, per request kind,
// once switched on.
type handlerTimer struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	sum  map[string]time.Duration
	n    map[string]int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	kind := r.Header.Get(kindHeader)
	h.mu.Lock()
	h.sum[kind] += d
	h.n[kind]++
	h.mu.Unlock()
}

func (h *handlerTimer) mean(kind string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n[kind] == 0 {
		return 0
	}
	return ms(h.sum[kind]) / float64(h.n[kind])
}

func (h *handlerTimer) total() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var t time.Duration
	for _, d := range h.sum {
		t += d
	}
	return t
}

// loadgen is the benchmark's open-loop generator: nproc client
// connections, each request released at its due time and timed from it.
type loadgen struct {
	base    string
	clients []*http.Client
}

func newLoadgen(base string, conns int) *loadgen {
	g := &loadgen{base: base}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// sample is one request's measurement. lat runs from when the request was
// due to when its body was read; lag is how late the generator released
// it, connWait how long it then waited for a free connection, and client
// the round trip on the connection.
type sample struct {
	lat, lag, connWait, client time.Duration
	status                     int
	good                       bool
	batches                    []int
	steps                      int64
}

type phaseResult struct {
	samples []sample
	elapsed time.Duration
}

func (p phaseResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.good {
			n++
		}
	}
	return n
}

func (p phaseResult) meanLatency() time.Duration {
	var t time.Duration
	for _, s := range p.samples {
		t += s.lat
	}
	return t / time.Duration(len(p.samples))
}

// run offers sched and returns one sample per request. The dispatcher only
// sleeps and enqueues, so server slowness shows up as connection wait, not
// as generator lag.
func (g *loadgen) run(sched []request) phaseResult {
	queue := make(chan int, len(sched)) // one slot per request: the dispatcher never blocks
	released := make([]time.Time, len(sched))
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				r := &sched[i]
				picked := time.Now()
				status, body, err := g.do(c, r)
				done := time.Now()
				due := start.Add(r.due)
				s := sample{lat: done.Sub(due), lag: released[i].Sub(due), connWait: picked.Sub(released[i]),
					client: done.Sub(picked), status: status}
				if err == nil {
					s.good, s.batches, s.steps = check(r, status, body)
				}
				out[i] = s
			}
		}(c)
	}
	for i := range sched {
		if d := time.Until(start.Add(sched[i].due)); d > 0 {
			time.Sleep(d)
		}
		released[i] = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return phaseResult{samples: out, elapsed: time.Since(start)}
}

func (g *loadgen) do(c *http.Client, r *request) (int, []byte, error) {
	req, err := http.NewRequest(r.method, g.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(kindHeader, r.kind.handlerKind())
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// check decides whether a response is the correct answer to r, and returns
// the batch sizes it reports and the steps it executed.
func check(r *request, status int, body []byte) (bool, []int, int64) {
	if status != http.StatusOK {
		return false, nil, 0
	}
	switch r.kind {
	case kindSwap:
		var resp serve.ModelPutResponse
		err := json.Unmarshal(body, &resp)
		return err == nil && resp.Model == "lr" && resp.Version >= 2, nil, 0
	case kindTransform:
		var resp serve.TransformResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Exec == nil {
			return false, nil, 0
		}
		e := resp.Exec
		ok := sameVerdicts(resp.Verdicts, r.want) && e.Trap == "" && e.Ret == r.exec.Ret && e.Output == r.exec.Out
		return ok, sizes(resp.BatchSizes), e.Steps
	default:
		var resp serve.ClassifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, nil, 0
		}
		return sameVerdicts(resp.Verdicts, r.want), sizes(resp.BatchSizes), 0
	}
}

func sameVerdicts(got, want map[string]int) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return false
		}
	}
	return true
}

func sizes(m map[string]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// programTimers are the serving path's own embedding and execution timers
// (execution includes the bytecode compile), which the attribution reads
// beside the compile cache's.
type programTimers struct {
	embed, exec time.Duration
	embedCalls  int64
}

func captureTimers() programTimers {
	e, x := obs.GetTimer("phase.embed"), obs.GetTimer("phase.exec")
	return programTimers{e.Total(), x.Total(), e.Count()}
}

func (m programTimers) since() programTimers {
	now := captureTimers()
	return programTimers{now.embed - m.embed, now.exec - m.exec, now.embedCalls - m.embedCalls}
}

// serveAttribution splits each request's latency, from when it was due,
// into generator lag, connection wait, transport and handler time, and the
// handler time into the layers the program's own timers cover.
func serveAttribution(sched []request, res phaseResult, mw *handlerTimer, pt programTimers,
	win windowDelta, good float64) (*tracer, map[string]float64) {

	tr := newTracer()
	n := float64(len(res.samples))
	var lag, wait, client, lat time.Duration
	var batchSum, batches, rejected, timeouts, steps float64
	freshBytes := 0
	for i, s := range res.samples {
		lag += s.lag
		wait += s.connWait
		client += s.client
		lat += s.lat
		for _, b := range s.batches {
			batchSum += float64(b)
			batches++
		}
		switch s.status {
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusGatewayTimeout:
			timeouts++
		}
		steps += float64(s.steps)
		freshBytes += sched[i].srcLen
	}
	handler := mw.total()
	inner := win.pc.CompileTime + win.pc.FlattenTime + win.pc.ThawTime + pt.embed + pt.exec
	tr.ops = int64(len(res.samples))
	tr.opTime = lat
	tr.add("loadgen.lag", lag, tr.ops)
	tr.add("loadgen.conn_wait", wait, tr.ops)
	tr.add("serve.transport", client-handler, tr.ops)
	tr.add("serve.handler", handler-inner, tr.ops)
	tr.add("minic.compile", win.pc.CompileTime, win.pc.Misses+win.pc.UntrustedMisses)
	tr.add("ir.flatten", win.pc.FlattenTime, 0)
	tr.add("progcache.thaw", win.pc.ThawTime, 0)
	tr.add("embed.vec", pt.embed, pt.embedCalls)
	tr.add("vm.run", pt.exec, 0)
	tr.counts["minic.bytes"] = float64(freshBytes)
	tr.counts["vm.steps"] = steps
	return tr, map[string]float64{
		"serve.handler_ms.histogram": mw.mean("histogram"),
		"serve.handler_ms.source":    mw.mean("source"),
		"serve.handler_ms.transform": mw.mean("transform"),
		"serve.swap_ms":              mw.mean("swap"),
		"serve.transport_ms":         ms(client-handler) / n,
		"serve.conn_wait_ms":         ms(wait) / n,
		"serve.batch_size_mean":      ratio(batchSum, batches),
		"serve.rejected":             rejected / n,
		"serve.timeouts":             timeouts / n,
		"serve.slo_ratio":            good / n,
		"loadgen.lag_ms":             ms(lag) / n,
	}
}
