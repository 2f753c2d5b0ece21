package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// gateModel announces each Predict on started, then blocks until the gate
// opens, so a test can hold a flush open while it queues more calls. Its
// verdict is the index of the largest feature.
type gateModel struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

// open releases every blocked and future Predict; safe to call repeatedly,
// so a deferred open unblocks the batcher's close on a failing test.
func (g *gateModel) open() { g.once.Do(func() { close(g.release) }) }

func newGateModel() *gateModel {
	return &gateModel{started: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gateModel) Fit([][]float64, []int, int) error { return nil }

func (g *gateModel) Predict(x []float64) int {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

func (g *gateModel) MemoryBytes() int64 { return 0 }

const gateDim = 4

// gateCall builds a call whose expected verdict is i % gateDim.
func gateCall(i int) *predictCall {
	vec := make([]float64, gateDim)
	vec[i%gateDim] = 1
	return &predictCall{vec: vec, done: make(chan struct{})}
}

// waitFlushStarted blocks until the gate model's Predict has begun, i.e.
// the batcher is inside a flush and will not read its queue until release.
func waitFlushStarted(t *testing.T, g *gateModel) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("flush never started")
	}
}

// waitBlockedEnqueues waits until n goroutines are parked in enqueue's send
// behind a full queue, read from a dump of every goroutine's stack.
func waitBlockedEnqueues(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		blocked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "(*batcher).enqueue") {
				blocked++
			}
		}
		if blocked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d enqueues blocked on the full queue, want %d", blocked, n)
		}
		runtime.Gosched()
	}
}

// checkResolved waits for every call and checks its verdict and error.
func checkResolved(t *testing.T, b *batcher, calls []*predictCall) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, call := range calls {
		if err := b.wait(ctx, call); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if call.class != i%gateDim {
			t.Errorf("call %d: verdict %d, want %d", i, call.class, i%gateDim)
		}
	}
}

// TestBatcherFlushesWhatIsQueued pins the rule for closing a batch: a lone
// call flushes at once as a batch of one, and every call that queued
// during that flush goes out together in the next batch.
func TestBatcherFlushesWhatIsQueued(t *testing.T) {
	g := newGateModel()
	b := newBatcher("gate", g, 8)
	defer b.close()
	defer g.open()
	ctx := context.Background()

	calls := make([]*predictCall, 8)
	for i := range calls {
		calls[i] = gateCall(i)
	}
	if err := b.enqueue(ctx, calls[0]); err != nil {
		t.Fatal(err)
	}
	waitFlushStarted(t, g)
	for _, call := range calls[1:] {
		if err := b.enqueue(ctx, call); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(b.in); n != 7 {
		t.Fatalf("%d calls queued behind the flush, want 7", n)
	}
	g.open()

	checkResolved(t, b, calls)
	if calls[0].batch != 1 {
		t.Errorf("first call: batch %d, want 1", calls[0].batch)
	}
	for i, call := range calls[1:] {
		if call.batch != 7 {
			t.Errorf("queued call %d: batch %d, want 7", i+1, call.batch)
		}
	}
}

// TestBatcherCapsBatchAtMaxBatch queues more calls than one batch holds:
// the extra sends block on the full queue, every batch stays within
// maxBatch and every call is answered.
func TestBatcherCapsBatchAtMaxBatch(t *testing.T) {
	const maxBatch, queued = 3, 8
	g := newGateModel()
	b := newBatcher("gate", g, maxBatch)
	defer b.close()
	defer g.open()
	ctx := context.Background()

	calls := make([]*predictCall, 1+queued)
	for i := range calls {
		calls[i] = gateCall(i)
	}
	if err := b.enqueue(ctx, calls[0]); err != nil {
		t.Fatal(err)
	}
	waitFlushStarted(t, g)
	// The first maxBatch sends fill the queue; the rest block until the
	// batcher drains it, so they run in goroutines, and the gate opens only
	// once all of them wait, ready to refill the queue as collect drains.
	for _, call := range calls[1 : 1+maxBatch] {
		if err := b.enqueue(ctx, call); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, call := range calls[1+maxBatch:] {
		wg.Add(1)
		go func(call *predictCall) {
			defer wg.Done()
			if err := b.enqueue(ctx, call); err != nil {
				t.Error(err)
			}
		}(call)
	}
	waitBlockedEnqueues(t, queued-maxBatch)
	g.open()
	wg.Wait()

	checkResolved(t, b, calls)
	for i, call := range calls {
		if call.batch < 1 || call.batch > maxBatch {
			t.Errorf("call %d: batch %d, want 1..%d", i, call.batch, maxBatch)
		}
	}
}

// TestBatcherCloseAnswersQueuedCalls closes the batcher with calls still
// queued behind a running flush: close must answer every one of them
// before it returns, and a later enqueue must be shed with
// errBatcherClosed.
func TestBatcherCloseAnswersQueuedCalls(t *testing.T) {
	g := newGateModel()
	b := newBatcher("gate", g, 8)
	defer g.open()
	ctx := context.Background()

	calls := make([]*predictCall, 4)
	for i := range calls {
		calls[i] = gateCall(i)
	}
	if err := b.enqueue(ctx, calls[0]); err != nil {
		t.Fatal(err)
	}
	waitFlushStarted(t, g)
	for _, call := range calls[1:] {
		if err := b.enqueue(ctx, call); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		b.close()
		close(closed)
	}()
	// Release the flush only once close has begun (it closes quit after
	// marking the batcher closed), so a closing batcher drains the queue.
	select {
	case <-b.quit:
	case <-time.After(5 * time.Second):
		t.Fatal("close never began")
	}
	g.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close never returned")
	}

	for i, call := range calls {
		select {
		case <-call.done:
		default:
			t.Fatalf("call %d unanswered after close", i)
		}
	}
	checkResolved(t, b, calls)
	if err := b.enqueue(ctx, gateCall(0)); err != errBatcherClosed {
		t.Fatalf("enqueue after close: %v, want errBatcherClosed", err)
	}
}
