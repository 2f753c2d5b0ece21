package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/serve"
)

// TestRingConsistencyAndSpread pins the hash ring's contract: order() is a
// full permutation, deterministic across ring rebuilds, reasonably even in
// its first choices, and adding a replica remaps only a fraction of the
// keyspace (the point of consistent hashing — a resize must not flush every
// replica's progcache).
func TestRingConsistencyAndSpread(t *testing.T) {
	const replicas, keys = 5, 10000
	r1 := newRing(replicas, 64)
	r2 := newRing(replicas, 64)
	first := make([]int, replicas)
	for k := 0; k < keys; k++ {
		key := hashString(fmt.Sprintf("key-%d", k))
		o1, o2 := r1.order(key), r2.order(key)
		if len(o1) != replicas {
			t.Fatalf("order returned %d entries, want %d", len(o1), replicas)
		}
		seen := make(map[int]bool, replicas)
		for i, idx := range o1 {
			if idx != o2[i] {
				t.Fatalf("identical rings disagree on key %d", k)
			}
			if seen[idx] {
				t.Fatalf("order repeats replica %d for key %d", idx, k)
			}
			seen[idx] = true
		}
		first[o1[0]]++
	}
	for i, n := range first {
		// Uniform would be 2000; vnode placement wobbles, but a replica
		// receiving under a quarter of its fair share means the ring is
		// effectively excluding it.
		if n < keys/replicas/4 {
			t.Errorf("replica %d is first choice for only %d/%d keys", i, n, keys)
		}
	}

	bigger := newRing(replicas+1, 64)
	moved := 0
	for k := 0; k < keys; k++ {
		key := hashString(fmt.Sprintf("key-%d", k))
		if r1.order(key)[0] != bigger.order(key)[0] {
			moved++
		}
	}
	// Ideal remap fraction is 1/(n+1) ≈ 17%; anything near 100% would mean
	// modulo hashing snuck back in.
	if moved > keys/2 {
		t.Errorf("adding one replica moved %d/%d keys", moved, keys)
	}
}

// backend is a scriptable fake replica: counts requests, optionally
// answers 429 or sleeps, and serves a healthy /healthz.
type backend struct {
	ts       *httptest.Server
	requests atomic.Int64
	status   atomic.Int64 // response status for /v1/classify; 0 = 200
	delay    atomic.Int64 // nanoseconds of sleep before answering
}

func newBackend(t *testing.T, id int) *backend {
	t.Helper()
	b := &backend{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		b.requests.Add(1)
		if d := b.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if st := b.status.Load(); st != 0 {
			w.WriteHeader(int(st))
			fmt.Fprintf(w, `{"error":"scripted %d"}`, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%d}`, id)
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	return g
}

func classifyVia(t *testing.T, g *Gateway, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	resp := w.Result()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRoutingAffinityBySource: requests carrying the same `source` land on
// one replica (that affinity is what makes the per-replica progcaches
// effective), while distinct sources spread over more than one.
func TestRoutingAffinityBySource(t *testing.T) {
	backends := []*backend{newBackend(t, 0), newBackend(t, 1), newBackend(t, 2)}
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.ts.URL
	}
	g := newTestGateway(t, Config{Replicas: addrs, HedgeDelay: -1})

	body := `{"source":"int main() { return 7; }"}`
	for i := 0; i < 12; i++ {
		resp, out := classifyVia(t, g, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, out)
		}
	}
	busy := 0
	for _, b := range backends {
		if n := b.requests.Load(); n > 0 {
			busy++
			if n != 12 {
				t.Errorf("affinity split: backend got %d/12 requests", n)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("one source hit %d backends, want exactly 1", busy)
	}

	for i := 0; i < 60; i++ {
		body := fmt.Sprintf(`{"source":"int main() { return %d; }"}`, i)
		resp, out := classifyVia(t, g, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spread request %d: %d: %s", i, resp.StatusCode, out)
		}
	}
	spread := 0
	for _, b := range backends {
		if b.requests.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("60 distinct sources hit %d backends, want >= 2", spread)
	}
}

// TestFailoverOnDeadReplica: with one replica's listener closed, every
// request still succeeds via retry on the next ring candidate, and the
// fleet health degrades rather than lies.
func TestFailoverOnDeadReplica(t *testing.T) {
	alive := newBackend(t, 0)
	dead := newBackend(t, 1)
	dead.ts.Close()
	g := newTestGateway(t, Config{
		Replicas:      []string{alive.ts.URL, dead.ts.URL},
		HedgeDelay:    -1,
		ProbeInterval: 20 * time.Millisecond,
	})

	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"source":"int main() { return %d; }"}`, i)
		resp, out := classifyVia(t, g, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d died with the replica: %d: %s", i, resp.StatusCode, out)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		g.Handler().ServeHTTP(w, req)
		var h HealthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if h.Status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reported degraded: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackpressureRouting: a replica answering 429 is parked after its
// first shed and traffic flows to the other replica; the client sees only
// 200s.
func TestBackpressureRouting(t *testing.T) {
	shedding := newBackend(t, 0)
	shedding.status.Store(http.StatusTooManyRequests)
	healthy := newBackend(t, 1)
	g := newTestGateway(t, Config{
		Replicas:   []string{shedding.ts.URL, healthy.ts.URL},
		HedgeDelay: -1,
		Cooldown:   time.Minute, // parked once, parked for the whole test
	})

	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"source":"int main() { return %d; }"}`, i)
		resp, out := classifyVia(t, g, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, out)
		}
	}
	// Ring order varies per key, so the shedder may see a few first
	// attempts before every key's route finds it parked — but nothing close
	// to half the traffic.
	if n := shedding.requests.Load(); n > 5 {
		t.Errorf("parked replica still saw %d/20 requests", n)
	}
	if n := healthy.requests.Load(); n < 20 {
		t.Errorf("healthy replica saw %d/20 requests", n)
	}
}

// TestHedgingCutsTailLatency: when the primary for a key stalls, the hedge
// fires on the next candidate and the fast answer wins well before the
// stall clears.
func TestHedgingCutsTailLatency(t *testing.T) {
	a, b := newBackend(t, 0), newBackend(t, 1)
	g := newTestGateway(t, Config{
		Replicas:       []string{a.ts.URL, b.ts.URL},
		HedgeDelay:     10 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	})

	// Find the key's primary with both backends fast, then stall it.
	body := `{"source":"int main() { return 1; }"}`
	if resp, out := classifyVia(t, g, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d: %s", resp.StatusCode, out)
	}
	primary := a
	if b.requests.Load() > 0 {
		primary = b
	}
	primary.delay.Store(int64(2 * time.Second))

	start := time.Now()
	resp, out := classifyVia(t, g, body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request failed: %d: %s", resp.StatusCode, out)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("answer took %v: the hedge never fired", elapsed)
	}
	if a.requests.Load() == 0 || b.requests.Load() == 0 {
		t.Fatalf("hedge did not reach the second replica (a=%d b=%d)",
			a.requests.Load(), b.requests.Load())
	}
}

// trainLR builds a deterministic one-feature lr model; flip inverts the
// labeling so two models provably disagree.
func trainLR(t *testing.T, flip bool) ml.Model {
	t.Helper()
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

// TestPushHotSwapFleet drives the fleet snapshot path end to end over real
// serve replicas: one PUT through the gateway swaps every replica's model
// without a restart, verdicts flip fleet-wide, and the response reports a
// converged version vector.
func TestPushHotSwapFleet(t *testing.T) {
	modelA, modelB := trainLR(t, false), trainLR(t, true)
	probe := []float64{3}
	if modelA.Predict(probe) == modelB.Predict(probe) {
		t.Fatal("test models agree; they must disagree to witness the swap")
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := serve.New(serve.Config{
			Models: map[string]ml.Model{"lr": modelA},
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		addrs = append(addrs, addr)
	}
	g := newTestGateway(t, Config{Replicas: addrs, HedgeDelay: -1})

	classify := func(i int) int {
		body, _ := json.Marshal(serve.ClassifyRequest{Histogram: probe})
		resp, out := classifyVia(t, g, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: %d: %s", i, resp.StatusCode, out)
		}
		var cr serve.ClassifyResponse
		if err := json.Unmarshal(out, &cr); err != nil {
			t.Fatal(err)
		}
		return cr.Verdicts["lr"]
	}
	if got, want := classify(0), modelA.Predict(probe); got != want {
		t.Fatalf("pre-swap verdict %d, want %d", got, want)
	}

	var snap bytes.Buffer
	if err := ml.Save(&snap, modelB); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/models/lr", bytes.NewReader(snap.Bytes()))
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("push got %d: %s", w.Code, w.Body.String())
	}
	var push PushResponse
	if err := json.Unmarshal(w.Body.Bytes(), &push); err != nil {
		t.Fatal(err)
	}
	if push.Replicas != 2 || len(push.Versions) != 2 {
		t.Fatalf("push response %+v, want 2 replicas", push)
	}
	for i, v := range push.Versions {
		if v != 2 {
			t.Fatalf("replica %d at version %d after push, want 2 (fleet diverged)", i, v)
		}
	}
	// Every replica must answer with the new model — hit the fleet with
	// distinct sources... histogram requests route by body hash; several
	// tries cover both replicas, and any stale answer fails.
	for i := 0; i < 10; i++ {
		if got, want := classify(i), modelB.Predict(probe); got != want {
			t.Fatalf("post-swap verdict %d, want %d: a replica kept the old model", got, want)
		}
	}

	// Garbage never reaches the fleet: validated at the gateway.
	req = httptest.NewRequest(http.MethodPut, "/v1/models/lr", bytes.NewReader([]byte("junk")))
	w = httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage push got %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestDrainCompletesInFlight: Shutdown lets a request already inside the
// proxy finish against a slow replica, while new work is refused with 503.
func TestDrainCompletesInFlight(t *testing.T) {
	slow := newBackend(t, 0)
	slow.delay.Store(int64(300 * time.Millisecond))
	g, err := New(Config{Replicas: []string{slow.ts.URL}, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}

	status := make(chan int, 1)
	go func() {
		resp, _ := classifyVia(t, g, `{"source":"int main() { return 0; }"}`)
		status <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let it reach the replica

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
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

	resp, out := classifyVia(t, g, `{"source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503: %s", resp.StatusCode, out)
	}
}
