package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/serve"
)

// cmdGateway fronts a fleet of serve replicas with the sharded gateway
// tier: consistent-hash routing, health probing, retry/hedge, and
// fleet-wide snapshot hot-swap. The fleet is either an existing set of
// addresses (-replicas) or spawned locally (-spawn N), one child `arena
// serve` process per replica sharing one pre-trained snapshot directory:
//
//	arena gateway -addr 127.0.0.1:8090 -spawn 3 -snapshots runs/snap -models rf
//	arena gateway -replicas 10.0.0.1:8080,10.0.0.2:8080
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "gateway listen address")
	replicas := fs.String("replicas", "", "comma-separated replica addresses (mutually exclusive with -spawn)")
	spawn := fs.Int("spawn", 0, "spawn this many local serve replicas on free ports")
	snapDir := fs.String("snapshots", "snapshots", "snapshot directory shared by spawned replicas")
	models := fs.String("models", "rf,lr", "models each spawned replica serves")
	embedding := fs.String("embedding", "histogram", "embedding for spawned replicas")
	classes := fs.Int("classes", 8, "problem classes when training missing snapshots")
	per := fs.Int("per", 12, "solutions per class when training missing snapshots")
	seed := fs.Int64("seed", 1, "training seed for missing snapshots")
	retries := fs.Int("retries", 3, "max attempts per request, each on a distinct replica")
	hedge := fs.Duration("hedge", 0, "hedge delay before a speculative second attempt (0 = default, negative disables)")
	probe := fs.Duration("probe", 250*time.Millisecond, "replica /healthz polling period")
	cooldown := fs.Duration("cooldown", 500*time.Millisecond, "park duration after a replica answers 429/503 or fails")
	maxInFlight := fs.Int("max-inflight", 1024, "admitted requests before the gateway answers 429")
	timeout := fs.Duration("timeout", 15*time.Second, "end-to-end request budget, retries and hedges included")
	verbose := fs.Bool("v", false, "print the obs footer after shutdown")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*spawn > 0) == (*replicas != "") {
		return fmt.Errorf("gateway: need exactly one of -spawn or -replicas")
	}
	rec, err := o.begin("gateway", fs, *seed, *verbose)
	if err != nil {
		return err
	}

	var addrs []string
	var sup *replicaSupervisor
	stopChildren := func() {
		if sup != nil {
			sup.stop()
		}
	}
	if *spawn > 0 {
		// Train once up front so the children race neither each other nor
		// the filesystem: every replica cold-loads the same snapshot files.
		if _, _, err := loadOrTrainSnapshots(*snapDir, splitNames(*models), *embedding, *classes, *per, *seed); err != nil {
			return err
		}
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("gateway: locate own binary: %w", err)
		}
		sup = newReplicaSupervisor(self)
		for i := 0; i < *spawn; i++ {
			port, err := freePort()
			if err != nil {
				stopChildren()
				return fmt.Errorf("gateway: replica %d: %w", i, err)
			}
			replicaAddr := "127.0.0.1:" + strconv.Itoa(port)
			cargs := []string{"serve",
				"-addr", replicaAddr,
				"-snapshots", *snapDir,
				"-models", *models,
				"-embedding", *embedding,
				"-classes", strconv.Itoa(*classes),
				"-per", strconv.Itoa(*per),
				"-seed", strconv.FormatInt(*seed, 10),
			}
			if err := sup.launch(replicaAddr, cargs); err != nil {
				stopChildren()
				return fmt.Errorf("gateway: spawn replica %d: %w", i, err)
			}
			addrs = append(addrs, replicaAddr)
		}
		for _, a := range addrs {
			if err := serve.WaitReady(context.Background(), "http://"+a, 60*time.Second); err != nil {
				stopChildren()
				return fmt.Errorf("gateway: replica %s never became ready: %w", a, err)
			}
		}
	} else {
		for _, part := range strings.Split(*replicas, ",") {
			if a := strings.TrimSpace(part); a != "" {
				addrs = append(addrs, a)
			}
		}
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:       addrs,
		MaxAttempts:    *retries,
		HedgeDelay:     *hedge,
		ProbeInterval:  *probe,
		Cooldown:       *cooldown,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
	})
	if err != nil {
		stopChildren()
		return err
	}
	bound, err := gw.Start(*addr)
	if err != nil {
		stopChildren()
		return err
	}
	fmt.Fprintf(os.Stderr, "gateway on http://%s fronting %d replicas (POST /v1/classify /v1/transform, PUT /v1/models/{m}, GET /healthz /metricz)\n",
		bound, len(addrs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "draining gateway...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(drainCtx); err != nil {
		stopChildren()
		return fmt.Errorf("gateway: drain: %w", err)
	}
	stopChildren()
	fmt.Fprintln(os.Stderr, "drained")
	return rec.finish()
}

const (
	// replicaBackoffBase is the delay before the first respawn of a dead
	// replica; each consecutive crash doubles it up to replicaBackoffCap,
	// and a child that stays up replicaBackoffReset earns a fresh base.
	replicaBackoffBase  = 250 * time.Millisecond
	replicaBackoffCap   = 8 * time.Second
	replicaBackoffReset = 30 * time.Second
)

// replicaSupervisor keeps spawned serve replicas alive: every child that
// exits without the supervisor having been stopped is respawned on the SAME
// address (the gateway's ring position and probe target stay valid) after a
// doubling backoff, so a crash-looping replica cannot melt the host while a
// one-off kill rejoins the fleet in a quarter second.
type replicaSupervisor struct {
	self string // path to our own binary; children are `arena serve ...`

	mu       sync.Mutex
	stopped  bool
	children map[string]*exec.Cmd // live child per replica address
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newReplicaSupervisor(self string) *replicaSupervisor {
	return &replicaSupervisor{
		self:     self,
		children: make(map[string]*exec.Cmd),
		stopCh:   make(chan struct{}),
	}
}

// launch starts one replica and its monitor goroutine.
func (s *replicaSupervisor) launch(addr string, args []string) error {
	cmd, err := s.spawn(addr, args)
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go s.monitor(addr, args, cmd)
	return nil
}

// spawn starts the child and registers it so stop() can signal it. A spawn
// that races a concurrent stop() is terminated immediately.
func (s *replicaSupervisor) spawn(addr string, args []string) (*exec.Cmd, error) {
	cmd := exec.Command(s.self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
		return nil, fmt.Errorf("supervisor stopped")
	}
	s.children[addr] = cmd
	s.mu.Unlock()
	fmt.Fprintf(os.Stderr, "spawned replica http://%s (pid %d)\n", addr, cmd.Process.Pid)
	return cmd, nil
}

// monitor owns one replica address: it waits for the current child, and —
// unless the supervisor is stopping — respawns it after the current backoff.
func (s *replicaSupervisor) monitor(addr string, args []string, cmd *exec.Cmd) {
	defer s.wg.Done()
	backoff := replicaBackoffBase
	for {
		start := time.Now()
		var werr error
		if cmd != nil {
			werr = cmd.Wait()
		}
		s.mu.Lock()
		stopped := s.stopped
		delete(s.children, addr)
		s.mu.Unlock()
		if stopped {
			return
		}
		if cmd != nil && time.Since(start) >= replicaBackoffReset {
			backoff = replicaBackoffBase
		}
		fmt.Fprintf(os.Stderr, "gateway: replica http://%s exited (%v); respawning in %v\n", addr, werr, backoff)
		select {
		case <-s.stopCh:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > replicaBackoffCap {
			backoff = replicaBackoffCap
		}
		var err error
		if cmd, err = s.spawn(addr, args); err != nil {
			// Spawn failures (stop race, fork error) retry on the next
			// backoff tick; the stopped check above ends the loop.
			cmd = nil
		}
	}
}

// stop terminates every live child and waits for the monitors to drain.
// Children get SIGTERM so serve's graceful drain runs.
func (s *replicaSupervisor) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stopCh)
	live := make([]*exec.Cmd, 0, len(s.children))
	for _, c := range s.children {
		live = append(live, c)
	}
	s.mu.Unlock()
	for _, c := range live {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	s.wg.Wait()
}

// freePort asks the kernel for an unused loopback port. There is a window
// between Close and the child's Listen, but replicas come up one at a time
// immediately after, so in practice the reservation holds.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port, nil
}

// cmdPush hot-swaps a model snapshot through a gateway (fan-out to every
// replica) or a single serve instance:
//
//	arena push -addr http://127.0.0.1:8090 -model rf -snap runs/snap/rf.snap
func cmdPush(args []string) error {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8090", "gateway or serve base URL")
	model := fs.String("model", "", "model name to swap (required)")
	snap := fs.String("snap", "", "path to the .snap file to push (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" || *snap == "" {
		return fmt.Errorf("push: -model and -snap are required")
	}
	data, err := os.ReadFile(*snap)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req, err := http.NewRequest(http.MethodPut,
		base+"/v1/models/"+url.PathEscape(*model), strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	fmt.Printf("%s", body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push: %s answered %d", base, resp.StatusCode)
	}
	return nil
}
