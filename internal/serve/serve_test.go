package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/progcache"
	"repro/internal/serve"
)

// stubModel is a deterministic Model whose verdict is the index of the
// largest coordinate, with an optional artificial latency to provoke
// overload and timeout paths.
type stubModel struct {
	delay time.Duration
	panic bool
}

func (s *stubModel) Fit(X [][]float64, y []int, numClasses int) error { return nil }

func (s *stubModel) Predict(x []float64) int {
	if s.panic {
		panic("stub model exploded")
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

func (s *stubModel) MemoryBytes() int64 { return 0 }

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestClassifyBatchesConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models:      map[string]ml.Model{"stub": &stubModel{}},
		BatchWindow: 50 * time.Millisecond,
		MaxBatch:    16,
	})

	const n = 8
	var wg sync.WaitGroup
	sizes := make([]int, n)
	verdicts := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vec := make([]float64, 4)
			vec[i%4] = 1 // expected verdict: i%4
			resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: vec})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var out serve.ClassifyResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			verdicts[i] = out.Verdicts["stub"]
			sizes[i] = out.BatchSizes["stub"]
		}(i)
	}
	wg.Wait()

	maxBatch := 0
	for i := 0; i < n; i++ {
		if verdicts[i] != i%4 {
			t.Errorf("request %d: verdict %d, want %d", i, verdicts[i], i%4)
		}
		if sizes[i] > maxBatch {
			maxBatch = sizes[i]
		}
	}
	// With a 50ms window and 8 requests fired together, at least one GEMM
	// pass must have carried more than one request.
	if maxBatch < 2 {
		t.Errorf("no coalescing observed: max batch size %d", maxBatch)
	}
}

func TestOverloadSheds429ThenRecovers(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models:      map[string]ml.Model{"stub": &stubModel{delay: 200 * time.Millisecond}},
		MaxInFlight: 2,
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
	})

	const n = 10
	var wg sync.WaitGroup
	var ok, rejected, other int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: []float64{1}})
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				rejected++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Errorf("MaxInFlight=2 with %d concurrent slow requests shed nothing", n)
	}
	if ok == 0 {
		t.Error("overload starved every request; admitted ones should finish")
	}
	if other != 0 {
		t.Errorf("%d requests failed with unexpected statuses", other)
	}

	// The semaphore must fully release: a lone request after the storm
	// succeeds rather than the server collapsing.
	resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: []float64{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload request failed: %d: %s", resp.StatusCode, body)
	}
}

func TestGracefulDrainCompletesInFlight(t *testing.T) {
	s, err := serve.New(serve.Config{
		Models:      map[string]ml.Model{"stub": &stubModel{delay: 300 * time.Millisecond}},
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr

	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(serve.ClassifyRequest{Histogram: []float64{1}})
		resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request get admitted

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case st := <-status:
		if st != http.StatusOK {
			t.Fatalf("in-flight request during drain got %d, want 200", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// New work after drain is refused at the connection or handler level.
	resp, err := http.Get(url + "/healthz")
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Fatal("healthz still 200 after drain")
		}
		resp.Body.Close()
	}
}

func TestRequestTimeoutAnswers504(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models:         map[string]ml.Model{"stub": &stubModel{delay: 2 * time.Second}},
		RequestTimeout: 100 * time.Millisecond,
		MaxBatch:       1,
		BatchWindow:    time.Millisecond,
	})
	resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: []float64{1}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow model got %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models:      map[string]ml.Model{"bad": &stubModel{panic: true}, "good": &stubModel{}},
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
	})
	resp, body := postJSON(t, ts.URL+"/v1/classify",
		serve.ClassifyRequest{Histogram: []float64{1}, Models: []string{"bad"}})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("panicking model answered 200: %s", body)
	}
	// The batcher goroutine must survive its model's panic; an unrelated
	// model keeps serving.
	resp, body = postJSON(t, ts.URL+"/v1/classify",
		serve.ClassifyRequest{Histogram: []float64{0, 1}, Models: []string{"good"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy model after panic got %d: %s", resp.StatusCode, body)
	}
	// And the panicking model's batcher itself still answers (with the
	// same error, not a hang).
	resp, _ = postJSON(t, ts.URL+"/v1/classify",
		serve.ClassifyRequest{Histogram: []float64{1}, Models: []string{"bad"}})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("panicking model recovered to 200 without retraining")
	}
}

func TestClassifyValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
	})
	cases := []struct {
		name string
		req  serve.ClassifyRequest
	}{
		{"empty", serve.ClassifyRequest{}},
		{"both", serve.ClassifyRequest{Source: "int main() { return 0; }", Histogram: []float64{1}}},
		{"broken source", serve.ClassifyRequest{Source: "int main( {"}},
		// 600 KB of nested parentheses used to overflow the parser's stack
		// and kill the whole process; it is a parse error like any other.
		{"deeply nested source", serve.ClassifyRequest{Source: "int main() { return " +
			strings.Repeat("(", 300000) + "1" + strings.Repeat(")", 300000) + "; }"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/classify", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("got %d, want 400: %s", resp.StatusCode, body)
			}
			var e serve.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("400 without a JSON error body: %s", body)
			}
		})
	}
	// Asking for a model that is not loaded is a well-formed request for a
	// missing resource: 404, not 400.
	t.Run("unknown model", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/classify",
			serve.ClassifyRequest{Histogram: []float64{1}, Models: []string{"nope"}})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("got %d, want 404: %s", resp.StatusCode, body)
		}
		var e serve.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("404 without a JSON error body: %s", body)
		}
	})
}

func TestTransformRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
	})
	src := "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
	resp, body := postJSON(t, ts.URL+"/v1/transform",
		serve.TransformRequest{Source: src, Evader: "sub", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform got %d: %s", resp.StatusCode, body)
	}
	var out serve.TransformResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.IR == "" {
		t.Fatal("transform returned empty IR")
	}
	if _, ok := out.Verdicts["stub"]; !ok {
		t.Fatal("transform returned no verdict")
	}

	resp, body = postJSON(t, ts.URL+"/v1/transform",
		serve.TransformRequest{Source: src, Evader: "warp-drive", Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown evader got %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "warp-drive") {
		t.Fatalf("error does not name the bad evader: %s", body)
	}
}

// TestTransformExecute covers the execute=true path: the response must
// carry the transformed program's observable behaviour, computed on the
// configured engine — identical under tree, vm and the default (""), since
// the engines are conformance-tested to agree bit-for-bit.
func TestTransformExecute(t *testing.T) {
	src := "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
	engines := []string{"tree", "vm", ""}
	var execs []*core.ExecObs
	for _, engine := range engines {
		_, ts := newTestServer(t, serve.Config{
			Models: map[string]ml.Model{"stub": &stubModel{}},
			Engine: engine,
		})
		resp, body := postJSON(t, ts.URL+"/v1/transform",
			serve.TransformRequest{Source: src, Evader: "sub", Seed: 7, Execute: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %s: transform got %d: %s", engine, resp.StatusCode, body)
		}
		var out serve.TransformResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Exec == nil {
			t.Fatalf("engine %s: execute=true returned no exec observation", engine)
		}
		if out.Exec.Trap != "" {
			t.Fatalf("engine %s: unexpected trap: %s", engine, out.Exec.Trap)
		}
		if out.Exec.Ret != 45 {
			t.Errorf("engine %s: ret = %d, want 45", engine, out.Exec.Ret)
		}
		if out.Exec.Steps <= 0 {
			t.Errorf("engine %s: steps = %d, want > 0", engine, out.Exec.Steps)
		}
		execs = append(execs, out.Exec)
	}
	for i := 1; i < len(execs); i++ {
		if *execs[i] != *execs[0] {
			t.Errorf("engine %q disagrees with tree over the wire: %+v vs %+v", engines[i], execs[i], execs[0])
		}
	}

	// Without execute, the observation stays absent.
	_, ts := newTestServer(t, serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
	})
	resp, body := postJSON(t, ts.URL+"/v1/transform",
		serve.TransformRequest{Source: src, Evader: "sub", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform got %d: %s", resp.StatusCode, body)
	}
	var out serve.TransformResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Exec != nil {
		t.Fatalf("execute=false returned an exec observation: %+v", out.Exec)
	}
}

// TestBadEngineRejectedAtConstruction pins the fail-fast contract: a typo'd
// engine name must be an error when the server is built, not a 500 at request
// time.
func TestBadEngineRejectedAtConstruction(t *testing.T) {
	_, err := serve.New(serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
		Engine: "warp-drive",
	})
	if err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("bad engine not rejected by name: %v", err)
	}
}

// TestConcurrentClassifyRace hammers /v1/classify with a real trained model
// from 8 goroutines; run under -race this is the data-race gate for the
// whole request path (admission, batcher, obs counters).
func TestConcurrentClassifyRace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, classes = 8, 3
	X := make([][]float64, 60)
	y := make([]int, len(X))
	for i := range X {
		c := i % classes
		y[i] = c
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() + 3*float64(c)
		}
		X[i] = row
	}
	lr, err := ml.New("lr", rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.Fit(X, y, classes); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, serve.Config{
		Models:      map[string]ml.Model{"lr": lr},
		BatchWindow: time.Millisecond,
	})

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vec := X[(w*perWorker+i)%len(X)]
				resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: vec})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d req %d: %d: %s", w, i, resp.StatusCode, body)
					return
				}
				var out serve.ClassifyResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					return
				}
				if got, want := out.Verdicts["lr"], lr.Predict(vec); got != want {
					errs <- fmt.Errorf("worker %d req %d: verdict %d, serial predict %d", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMetriczSurfacesFlatCacheCounters drives two source-bearing classify
// requests for the same program (first compiles it into the server's
// bounded cache, second reuses it) and checks /metricz reports the
// progcache.untrusted.* counters and flatten timer — wire-originated
// compiles go through the server's own cache, not the pinned
// progcache.Default. A transform request with a
// mutating evader rides along so the thaw counters (a private module copy
// drawn off the cached flat view) are pinned on the wire too.
func TestMetriczSurfacesFlatCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
	})
	src := "int main() { int i; int s; s = 0; for (i = 0; i < 9; i = i + 1) { s = s + i; } return s; }"
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d got %d: %s", i, resp.StatusCode, body)
		}
	}
	resp0, body0 := postJSON(t, ts.URL+"/v1/transform", serve.TransformRequest{Source: src, Evader: "sub", Seed: 1})
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("transform got %d: %s", resp0.StatusCode, body0)
	}
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64           `json:"counters"`
		Timers   map[string]json.RawMessage `json:"timers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["progcache.untrusted.misses"] < 1 {
		t.Fatalf("metricz missing progcache.untrusted.misses: %v", snap.Counters)
	}
	if snap.Counters["progcache.untrusted.hits"] < 1 {
		t.Fatalf("metricz missing progcache.untrusted.hits: %v", snap.Counters)
	}
	if _, ok := snap.Timers["progcache.flatten"]; !ok {
		t.Fatalf("metricz missing progcache.flatten timer: %v", snap.Timers)
	}
	if snap.Counters["progcache.thaw.hits"] < 1 {
		t.Fatalf("metricz missing progcache.thaw.hits: %v", snap.Counters)
	}
	if _, ok := snap.Timers["progcache.thaw"]; !ok {
		t.Fatalf("metricz missing progcache.thaw timer: %v", snap.Timers)
	}
}

// TestClassifyCacheIsBounded: a server that has seen DefaultUntrustedCap+k
// distinct sources on /v1/classify has evicted exactly k compiles.
func TestClassifyCacheIsBounded(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Models: map[string]ml.Model{"stub": &stubModel{}},
	})
	counters := func() map[string]int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metricz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Counters
	}
	const k = 3
	before := counters()
	for i := 0; i < progcache.DefaultUntrustedCap+k; i++ {
		src := fmt.Sprintf("int main() { int x; x = %d; return x; }", 1000000+i)
		if resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Source: src}); resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d got %d: %s", i, resp.StatusCode, body)
		}
	}
	after := counters()
	const ev, miss = "progcache.untrusted.evictions", "progcache.untrusted.misses"
	if got := after[ev] - before[ev]; got != k {
		t.Fatalf("%s delta = %d, want %d", ev, got, k)
	}
	if got := after[miss] - before[miss]; got != progcache.DefaultUntrustedCap+k {
		t.Fatalf("%s delta = %d, want %d", miss, got, progcache.DefaultUntrustedCap+k)
	}
}

// TestShutdownUnderLoadNoPanic is the regression hammer for the drain
// ordering race: 16 goroutines keep requests in flight through the raw
// Handler() path (which http.Server.Shutdown never sees) while Shutdown
// runs with an already-expired context, exactly the interleaving that used
// to close the batcher channel under live enqueuers and panic. Run under
// -race. Every response must be a deliberate status; a 500 means the
// handler's recover ate a send-on-closed-channel panic.
func TestShutdownUnderLoadNoPanic(t *testing.T) {
	s, err := serve.New(serve.Config{
		Models:      map[string]ml.Model{"stub": &stubModel{delay: 20 * time.Millisecond}},
		MaxBatch:    4,
		BatchWindow: time.Millisecond,
		MaxInFlight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 16
	stop := make(chan struct{})
	bad := make(chan string, workers*64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(serve.ClassifyRequest{Histogram: []float64{1, 0}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // connection churn during teardown is fine
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout,
					serve.StatusClientClosedRequest:
				default:
					select {
					case bad <- fmt.Sprintf("status %d", resp.StatusCode):
					default:
					}
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the hammer establish in-flight load

	// An already-expired context forces the worst ordering: Shutdown cannot
	// wait politely, yet the batcher still must not close under a live
	// enqueuer.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(expired)

	// The server is now draining; the hammer keeps firing for a beat to
	// catch enqueue-after-close, which must answer 503, never panic.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Errorf("request answered with unexpected %s during shutdown", msg)
	}
}

// TestModelHotSwap drives the PUT /v1/models/{name} path: train two
// opposing models, swap one in over the wire, and require the verdict to
// flip without a restart, the version to advance in /healthz, a garbage
// snapshot to bounce with 400, and a push under a fresh name to add a
// model rather than replace one.
func TestModelHotSwap(t *testing.T) {
	// Two single-feature lr models trained on opposite labelings: modelA
	// says class 0 for a high feature, modelB says class 1.
	train := func(flip bool) ml.Model {
		rng := rand.New(rand.NewSource(11))
		X := make([][]float64, 40)
		y := make([]int, len(X))
		for i := range X {
			c := i % 2
			X[i] = []float64{3*float64(c) + rng.NormFloat64()*0.1}
			if flip {
				y[i] = 1 - c
			} else {
				y[i] = c
			}
		}
		m, err := ml.New("lr", rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(X, y, 2); err != nil {
			t.Fatal(err)
		}
		return m
	}
	modelA, modelB := train(false), train(true)
	probe := []float64{3}
	if modelA.Predict(probe) == modelB.Predict(probe) {
		t.Fatal("test models agree; they must disagree to witness the swap")
	}

	_, ts := newTestServer(t, serve.Config{
		Models:      map[string]ml.Model{"lr": modelA},
		BatchWindow: time.Millisecond,
	})

	classify := func() int {
		resp, body := postJSON(t, ts.URL+"/v1/classify", serve.ClassifyRequest{Histogram: probe})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify got %d: %s", resp.StatusCode, body)
		}
		var out serve.ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Verdicts["lr"]
	}
	put := func(name string, data []byte) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+name, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	if got, want := classify(), modelA.Predict(probe); got != want {
		t.Fatalf("pre-swap verdict %d, want %d", got, want)
	}

	var snapB bytes.Buffer
	if err := ml.Save(&snapB, modelB); err != nil {
		t.Fatal(err)
	}
	resp, body := put("lr", snapB.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot put got %d: %s", resp.StatusCode, body)
	}
	var putOut serve.ModelPutResponse
	if err := json.Unmarshal(body, &putOut); err != nil {
		t.Fatal(err)
	}
	if putOut.Model != "lr" || putOut.Version != 2 {
		t.Fatalf("put response %+v, want lr version 2", putOut)
	}
	if got, want := classify(), modelB.Predict(probe); got != want {
		t.Fatalf("post-swap verdict %d, want %d: the swap did not take", got, want)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health serve.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Versions["lr"] != 2 {
		t.Fatalf("healthz versions %v, want lr=2", health.Versions)
	}

	// Garbage bytes must bounce with 400 and leave the live model intact.
	resp, body = put("lr", []byte("not a snapshot"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage snapshot got %d, want 400: %s", resp.StatusCode, body)
	}
	if got, want := classify(), modelB.Predict(probe); got != want {
		t.Fatalf("verdict changed after rejected push: %d, want %d", got, want)
	}

	// A fresh name adds a model instead of replacing one.
	resp, body = put("lr2", snapB.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new-name put got %d: %s", resp.StatusCode, body)
	}
	cresp, cbody := postJSON(t, ts.URL+"/v1/classify",
		serve.ClassifyRequest{Histogram: probe, Models: []string{"lr2"}})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify on pushed model got %d: %s", cresp.StatusCode, cbody)
	}
	var out serve.ClassifyResponse
	if err := json.Unmarshal(cbody, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.Verdicts["lr2"], modelB.Predict(probe); got != want {
		t.Fatalf("pushed model verdict %d, want %d", got, want)
	}
}

// TestHealthzReportsLineage: the lineage stamped into a snapshot (boot
// config or PUT push) is traceable through /healthz and the PUT response.
func TestHealthzReportsLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X := make([][]float64, 40)
	y := make([]int, len(X))
	for i := range X {
		c := i % 2
		X[i] = []float64{3*float64(c) + rng.NormFloat64()*0.1}
		y[i] = c
	}
	m, err := ml.New("lr", rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, serve.Config{
		Models:  map[string]ml.Model{"lr": m},
		Lineage: map[string]ml.Lineage{"lr": {Generation: 1}},
	})

	healthz := func() serve.HealthResponse {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serve.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := healthz().Lineage["lr"]; got != (ml.Lineage{Generation: 1}) {
		t.Fatalf("boot lineage %+v, want generation 1", got)
	}

	want := ml.Lineage{Generation: 5, Parent: 4}
	var snap bytes.Buffer
	if err := ml.SaveLineage(&snap, m, want); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/lr", bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var putOut serve.ModelPutResponse
	if err := json.NewDecoder(resp.Body).Decode(&putOut); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || putOut.Lineage != want {
		t.Fatalf("put answered %d lineage %+v, want 200 %+v", resp.StatusCode, putOut.Lineage, want)
	}
	if got := healthz().Lineage["lr"]; got != want {
		t.Fatalf("post-push lineage %+v, want %+v", got, want)
	}
}
