// Package gateway is the front tier of the sharded serving fabric: it
// consistent-hashes classify/transform requests across N replica serve
// processes, probes each replica's /healthz, routes around backpressure
// (429/503 answers park a replica briefly), retries transient failures with
// bounded exponential backoff, hedges slow requests onto the next replica
// in ring order to cut tail latency, and fans pushed model snapshots out to
// the whole fleet for versioned hot-swap. Each replica keeps a private
// progcache; the source-keyed ring gives repeated probes of one program
// affinity to one replica, which is what makes the shared-nothing caches
// effective.
//
// Endpoints (wire-compatible with a single serve process, so loadgen and
// clients need no changes):
//
//	POST /v1/classify       routed by source (or body) hash, retried/hedged
//	POST /v1/transform      same discipline
//	PUT  /v1/models/{name}  validate snapshot, fan out to every replica
//	GET  /healthz           fleet view: per-replica health + snapshot versions
//	GET  /metricz           JSON snapshot of the obs registry
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config sizes a Gateway. Zero values take the defaults below.
type Config struct {
	// Replicas are the backend base URLs ("host:port" or "http://host:port");
	// at least one is required.
	Replicas []string
	// MaxAttempts bounds the tries per request, each on a distinct replica
	// (clamped to the replica count).
	MaxAttempts int
	// HedgeDelay launches a speculative second attempt on the next replica
	// when the first has not answered yet; first non-retryable answer wins.
	// 0 takes the default; negative disables hedging.
	HedgeDelay time.Duration
	// ProbeInterval is the /healthz polling period.
	ProbeInterval time.Duration
	// Cooldown parks a replica that answered 429/503 or failed transport.
	Cooldown time.Duration
	// MaxInFlight bounds admitted requests; beyond it the gateway answers
	// 429 without consulting any replica.
	MaxInFlight int
	// RequestTimeout is the end-to-end budget per request, retries and
	// hedges included.
	RequestTimeout time.Duration
}

const (
	// defaultVNodes is the virtual-node count per replica on the hash ring.
	defaultVNodes      = 64
	defaultMaxAttempts = 3
	// defaultRetryBackoff is the base delay before a retry, doubling per
	// attempt.
	defaultRetryBackoff   = 5 * time.Millisecond
	defaultHedgeDelay     = 25 * time.Millisecond
	defaultProbeInterval  = 250 * time.Millisecond
	defaultCooldown       = 500 * time.Millisecond
	defaultMaxInFlight    = 1024
	defaultRequestTimeout = 15 * time.Second
	maxBodyBytes          = 1 << 20
	maxSnapshotBytes      = 64 << 20
	// maxRelayBytes bounds a replica answer the gateway will buffer;
	// transform responses carry printed IR, so this is roomier than the
	// request cap.
	maxRelayBytes = 8 << 20
)

// Gateway fronts a fleet of serve replicas. Build with New, then Start (or
// mount Handler), and Shutdown to drain.
type Gateway struct {
	cfg      Config
	replicas []*replica
	ring     *ring
	client   *http.Client
	admit    chan struct{}
	barrier  *serve.DrainBarrier
	mux      *http.ServeMux
	httpSrv  *http.Server

	probeCancel context.CancelFunc
	probeDone   chan struct{}

	requests  *obs.Counter
	rejected  *obs.Counter
	errors    *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	pushes    *obs.Counter
}

// New validates cfg, applies defaults, builds the ring and starts the
// health prober. Pair with Shutdown even if Start is never called.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = defaultMaxAttempts
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = defaultHedgeDelay
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = defaultCooldown
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      newRing(len(cfg.Replicas), defaultVNodes),
		admit:     make(chan struct{}, cfg.MaxInFlight),
		barrier:   serve.NewDrainBarrier(),
		mux:       http.NewServeMux(),
		probeDone: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		}},
		requests:  obs.GetCounter("gateway.requests"),
		rejected:  obs.GetCounter("gateway.rejected"),
		errors:    obs.GetCounter("gateway.errors"),
		retries:   obs.GetCounter("gateway.retries"),
		hedges:    obs.GetCounter("gateway.hedges"),
		hedgeWins: obs.GetCounter("gateway.hedge_wins"),
		pushes:    obs.GetCounter("gateway.snapshot_pushes"),
	}
	for i, addr := range cfg.Replicas {
		base, err := normalizeBase(addr)
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %d: %w", i, err)
		}
		g.replicas = append(g.replicas, newReplica(i, base))
	}
	g.mux.Handle("POST /v1/classify", g.proxy("classify", "/v1/classify"))
	g.mux.Handle("POST /v1/transform", g.proxy("transform", "/v1/transform"))
	g.mux.HandleFunc("PUT /v1/models/{model}", g.handleModelPut)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metricz", g.handleMetricz)

	probeCtx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	go g.probeLoop(probeCtx)
	return g, nil
}

func normalizeBase(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("empty address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("address %q has no host", addr)
	}
	return strings.TrimRight(u.Scheme+"://"+u.Host+u.Path, "/"), nil
}

// Handler exposes the full route table (for tests and embedding).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Start listens on addr and serves in the background, returning the bound
// address. Pair with Shutdown.
func (g *Gateway) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.httpSrv = &http.Server{Handler: g.mux}
	go func() { _ = g.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the gateway: new requests answer 503, in-flight proxy
// work runs to completion within ctx's budget, and the prober stops. The
// replicas are processes of their own — draining them is their owner's job.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.barrier.BeginDrain()
	var err error
	if g.httpSrv != nil {
		err = g.httpSrv.Shutdown(ctx)
	}
	drainErr := g.barrier.Drain(ctx)
	g.probeCancel()
	<-g.probeDone
	if err == nil {
		err = drainErr
	}
	return err
}

// probeLoop refreshes every replica's health each interval, all probes in
// parallel so one hung replica cannot starve the sweep.
func (g *Gateway) probeLoop(ctx context.Context) {
	defer close(g.probeDone)
	client := &http.Client{Timeout: g.cfg.ProbeInterval}
	sweep := func() {
		var wg sync.WaitGroup
		for _, rep := range g.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rep.probe(ctx, client)
			}(rep)
		}
		wg.Wait()
	}
	sweep()
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			sweep()
		}
	}
}

// routeKey extracts the consistent-hash key from a request body: the
// `source` field when the JSON carries one (cache affinity), the raw bytes
// otherwise.
func routeKey(body []byte) uint64 {
	var probe struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &probe); err == nil && probe.Source != "" {
		return hashString(probe.Source)
	}
	return hashBytes(body)
}

// attempt is one try against one replica.
type attempt struct {
	status int
	body   []byte
	header http.Header
	err    error
	hedged bool
}

// retryable reports whether an attempt's outcome may be worth another
// replica: transport failures and backpressure answers are; every other
// status is the request's real answer and is relayed as-is.
func retryable(a attempt) bool {
	return a.err != nil || a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable
}

// proxy wraps the forward orchestrator in the shared request discipline:
// drain barrier, admission control, the end-to-end deadline and latency
// observation.
func (g *Gateway) proxy(op, path string) http.Handler {
	lat := obs.GetHistogram("gateway.latency." + op)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.requests.Add(1)
		if !g.barrier.Enter() {
			writeError(w, http.StatusServiceUnavailable, "gateway is draining")
			return
		}
		defer g.barrier.Exit()
		select {
		case g.admit <- struct{}{}:
		default:
			g.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "gateway at capacity")
			return
		}
		defer func() { <-g.admit }()
		start := time.Now()
		defer func() { lat.Observe(time.Since(start)) }()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
		defer cancel()
		res := g.forward(ctx, routeKey(body), path, body)
		if res.err != nil {
			g.errors.Add(1)
			switch {
			case errors.Is(res.err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout, "gateway: request deadline exceeded")
			case errors.Is(res.err, context.Canceled):
				writeError(w, serve.StatusClientClosedRequest, "gateway: client closed request")
			default:
				writeError(w, http.StatusBadGateway, "gateway: no replica answered: "+res.err.Error())
			}
			return
		}
		if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	})
}

// forward runs the routing/retry/hedge state machine for one request.
// Candidates are the replicas in ring order from the key's home, available
// (healthy, not cooling) ones first; attempts land on distinct replicas.
// The first non-retryable answer wins and cancels the rest; retryable
// outcomes trigger a backed-off retry on the next candidate; a hedge fires
// once if the leader is slow. When everything fails, the last backpressure
// answer (or transport error) is the result.
func (g *Gateway) forward(ctx context.Context, key uint64, path string, body []byte) attempt {
	now := time.Now()
	orderIdx := g.ring.order(key)
	candidates := make([]*replica, 0, len(orderIdx))
	var parked []*replica
	for _, idx := range orderIdx {
		rep := g.replicas[idx]
		if rep.available(now) {
			candidates = append(candidates, rep)
		} else {
			parked = append(parked, rep)
		}
	}
	// Unavailable replicas stay reachable as a last resort: all-parked is
	// likely a cold start or a global burst, not a dead fleet.
	candidates = append(candidates, parked...)
	maxAttempts := g.cfg.MaxAttempts
	if maxAttempts > len(candidates) {
		maxAttempts = len(candidates)
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt, maxAttempts)
	launched := 0
	launch := func(hedged bool) bool {
		if launched >= maxAttempts {
			return false
		}
		rep := candidates[launched]
		launched++
		go func() {
			a := g.attempt(actx, rep, path, body)
			a.hedged = hedged
			results <- a
		}()
		return true
	}
	launch(false)

	var hedgeC <-chan time.Time
	if g.cfg.HedgeDelay > 0 {
		t := time.NewTimer(g.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var last attempt
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if !retryable(a) {
				if a.hedged {
					g.hedgeWins.Add(1)
				}
				return a
			}
			last = a
			if launched < maxAttempts {
				backoff := defaultRetryBackoff << uint(launched-1)
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-actx.Done():
					t.Stop()
					return attempt{err: actx.Err()}
				}
				g.retries.Add(1)
				launch(false)
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				g.hedges.Add(1)
				pending++
			}
		case <-actx.Done():
			return attempt{err: actx.Err()}
		}
	}
	return last
}

// attempt performs one HTTP round trip against one replica, recording the
// per-replica series and maintaining health/cooldown state inline: a
// transport failure with a live context means the replica is gone (mark
// unhealthy now, a probe will resurrect it), and a 429/503 answer parks it
// for the cooldown.
func (g *Gateway) attempt(ctx context.Context, rep *replica, path string, body []byte) attempt {
	rep.requests.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+path, bytes.NewReader(body))
	if err != nil {
		rep.failures.Inc()
		return attempt{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := g.client.Do(req)
	rep.latency.Observe(time.Since(start))
	if err != nil {
		rep.failures.Inc()
		// Only penalize the replica when the failure is its own: a cancel
		// from the hedge winner or the request deadline also lands here.
		if ctx.Err() == nil {
			rep.setHealthy(false)
			rep.park(g.cfg.Cooldown)
		}
		return attempt{err: err}
	}
	rbody, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	resp.Body.Close()
	if rerr != nil {
		rep.failures.Inc()
		if ctx.Err() == nil {
			rep.park(g.cfg.Cooldown)
		}
		return attempt{err: rerr}
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		rep.backpressure.Inc()
		rep.park(g.cfg.Cooldown)
	}
	return attempt{status: resp.StatusCode, body: rbody, header: resp.Header}
}

// handleModelPut validates a pushed snapshot once, then fans it out to
// every live replica in parallel. Success means every replica believed
// healthy swapped (the response lists each one's new version; replicas the
// prober has already declared dead are skipped and reported — they cannot
// receive a push, and a resurrected replica reloads from its snapshot
// directory anyway). A failure on a live replica answers 502 with the
// details — the push is idempotent, so the fix is to push again.
func (g *Gateway) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if !g.barrier.Enter() {
		writeError(w, http.StatusServiceUnavailable, "gateway is draining")
		return
	}
	defer g.barrier.Exit()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read snapshot: "+err.Error())
		return
	}
	if _, err := ml.Load(bytes.NewReader(data)); err != nil {
		writeError(w, http.StatusBadRequest, "bad snapshot: "+err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	type pushResult struct {
		idx     int
		version int64
		err     error
	}
	var targets, skipped []*replica
	for _, rep := range g.replicas {
		if rep.healthy.Load() {
			targets = append(targets, rep)
		} else {
			skipped = append(skipped, rep)
		}
	}
	if len(targets) == 0 {
		writeError(w, http.StatusServiceUnavailable, "snapshot push: no healthy replica to push to")
		return
	}
	results := make(chan pushResult, len(targets))
	for _, rep := range targets {
		go func(rep *replica) {
			res := pushResult{idx: rep.idx}
			defer func() { results <- res }()
			req, err := http.NewRequestWithContext(ctx, http.MethodPut,
				rep.base+"/v1/models/"+url.PathEscape(name), bytes.NewReader(data))
			if err != nil {
				res.err = err
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				res.err = err
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				res.err = fmt.Errorf("replica %s: status %d: %s", rep.base, resp.StatusCode, strings.TrimSpace(string(body)))
				return
			}
			var out serve.ModelPutResponse
			if err := json.Unmarshal(body, &out); err != nil {
				res.err = fmt.Errorf("replica %s: bad push response: %w", rep.base, err)
				return
			}
			res.version = out.Version
		}(rep)
	}
	versions := make([]int64, len(g.replicas))
	var failures []string
	for range targets {
		res := <-results
		if res.err != nil {
			failures = append(failures, res.err.Error())
			continue
		}
		versions[res.idx] = res.version
	}
	if len(failures) > 0 {
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("snapshot push reached %d/%d live replicas: %s",
				len(targets)-len(failures), len(targets), strings.Join(failures, "; ")))
		return
	}
	g.pushes.Add(1)
	out := PushResponse{Model: name, Replicas: len(targets), Versions: versions}
	for _, rep := range skipped {
		out.Skipped = append(out.Skipped, rep.base)
	}
	_ = writeJSON(w, http.StatusOK, out)
}

// PushResponse answers a fleet-wide snapshot push.
type PushResponse struct {
	Model string `json:"model"`
	// Replicas is how many live replicas swapped.
	Replicas int `json:"replicas"`
	// Versions is each replica's new snapshot generation, in config order;
	// skipped (dead) replicas report 0.
	Versions []int64 `json:"versions"`
	// Skipped lists replicas the prober had declared dead at push time.
	Skipped []string `json:"skipped,omitempty"`
}

// HealthResponse is the gateway's /healthz payload: the fleet view.
type HealthResponse struct {
	Status   string          `json:"status"` // "ok", "degraded", "down" or "draining"
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's slice of the fleet view.
type ReplicaHealth struct {
	Addr     string           `json:"addr"`
	Healthy  bool             `json:"healthy"`
	Cooling  bool             `json:"cooling,omitempty"`
	Versions map[string]int64 `json:"versions,omitempty"`
	// Lineage is the retraining ancestry each replica reported for the
	// snapshots it serves (see serve.HealthResponse.Lineage), so a fleet
	// push of a co-evolution checkpoint is traceable per replica.
	Lineage map[string]ml.Lineage `json:"lineage,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := HealthResponse{Status: "ok"}
	healthy := 0
	for _, rep := range g.replicas {
		h := rep.healthy.Load()
		if h {
			healthy++
		}
		resp.Replicas = append(resp.Replicas, ReplicaHealth{
			Addr:     rep.base,
			Healthy:  h,
			Cooling:  rep.cooling(now),
			Versions: rep.snapshotVersions(),
			Lineage:  rep.snapshotLineage(),
		})
	}
	status := http.StatusOK
	switch {
	case g.barrier.Draining():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case healthy == 0:
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	case healthy < len(g.replicas):
		resp.Status = "degraded"
	}
	_ = writeJSON(w, status, resp)
}

func (g *Gateway) handleMetricz(w http.ResponseWriter, r *http.Request) {
	_ = writeJSON(w, http.StatusOK, obs.Capture())
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(buf)
	return err
}

func writeError(w http.ResponseWriter, status int, msg string) {
	_ = writeJSON(w, status, serve.ErrorResponse{Error: msg})
}
