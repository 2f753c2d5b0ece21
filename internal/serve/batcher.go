package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/ml"
	"repro/internal/obs"
)

// errBatcherClosed is what enqueue returns once the batcher has begun
// closing: the request raced the drain and should be shed with a 503, never
// a panic.
var errBatcherClosed = &statusError{status: http.StatusServiceUnavailable, msg: "server is draining"}

// predictCall is one vector waiting for a verdict from one model's batcher.
// The caller blocks on done; the batcher fills class/batch/err before
// closing it.
type predictCall struct {
	vec   []float64
	done  chan struct{}
	class int
	batch int
	err   error
}

// modelBox wraps the model interface in a concrete type so atomic.Value
// accepts snapshots of different underlying model kinds (lr swapped for rf
// would otherwise panic Store's consistent-type check).
type modelBox struct{ m ml.Model }

// batcher coalesces concurrent predict calls for one model into batched
// ml.PredictBatch passes. A batch closes as soon as the queue is empty: the
// first arrival takes every call already buffered behind it (up to maxBatch)
// and they share one GEMM pass at once. A lone request waits for nothing;
// under load, calls pile up in the queue while a flush runs, so batches grow
// with the arrival rate times the predict time, up to maxBatch.
//
// The model is held behind an atomic box so a snapshot push can hot-swap it
// while batches are in flight: each flush pins one model for its whole
// batch, so every caller gets a verdict from exactly one coherent snapshot.
type batcher struct {
	name     string
	model    atomic.Value // modelBox
	in       chan *predictCall
	maxBatch int

	// closeMu holds every in-flight enqueue open against close: enqueue
	// sends under the read lock after checking closed, and close sets
	// closed under the write lock, so no send can land after close has
	// started observing the buffer. quit tells run to drain and stop;
	// stopped reports that it has.
	closeMu sync.RWMutex
	closed  bool
	quit    chan struct{}
	stopped chan struct{}

	batches   *obs.Counter
	coalesced *obs.Counter
	swaps     *obs.Counter
}

func newBatcher(name string, model ml.Model, maxBatch int) *batcher {
	b := &batcher{
		name:      name,
		in:        make(chan *predictCall, maxBatch),
		maxBatch:  maxBatch,
		quit:      make(chan struct{}),
		stopped:   make(chan struct{}),
		batches:   obs.GetCounter("serve.batches"),
		coalesced: obs.GetCounter("serve.batched_requests"),
		swaps:     obs.GetCounter("serve.model_swaps"),
	}
	b.model.Store(modelBox{model})
	go b.run()
	return b
}

// swap replaces the model serving this batcher's verdicts. Batches already
// collected keep the snapshot they loaded; no in-flight request is dropped.
func (b *batcher) swap(m ml.Model) {
	b.model.Store(modelBox{m})
	b.swaps.Add(1)
}

func (b *batcher) loadModel() ml.Model {
	return b.model.Load().(modelBox).m
}

// enqueue hands call to the batcher without waiting for the verdict, so a
// multi-model classify fans out to every batcher before blocking; pair with
// wait. Fails fast if the request deadline expires while the queue is full,
// and answers errBatcherClosed (503) — instead of panicking on a closed
// channel — when the request lost the race against shutdown.
func (b *batcher) enqueue(ctx context.Context, call *predictCall) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return errBatcherClosed
	}
	// The send happens under the read lock, so close (which needs the
	// write lock to set closed) cannot begin until it lands; run stays
	// alive to consume it until quit closes, which is strictly later.
	select {
	case b.in <- call:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wait blocks until the batcher has resolved call (or the deadline passes).
func (b *batcher) wait(ctx context.Context, call *predictCall) error {
	select {
	case <-call.done:
		return call.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the batcher after flushing everything already enqueued. Safe
// against concurrent enqueues and repeated calls: the write lock waits out
// every enqueue already past the closed check, later enqueues fail with
// errBatcherClosed, and the run loop flushes whatever the last enqueues
// buffered before stopping.
func (b *batcher) close() {
	b.closeMu.Lock()
	alreadyClosed := b.closed
	b.closed = true
	b.closeMu.Unlock()
	if !alreadyClosed {
		close(b.quit)
	}
	<-b.stopped
}

func (b *batcher) run() {
	defer close(b.stopped)
	for {
		select {
		case first := <-b.in:
			b.collect(first)
		case <-b.quit:
			// closed is set before quit closes, so the buffer can only
			// shrink now: flush the stragglers and stop.
			for {
				select {
				case call := <-b.in:
					b.collect(call)
				default:
					return
				}
			}
		}
	}
}

// collect fills one batch starting from first with every call already
// queued behind it, up to maxBatch, and flushes it. It never blocks: calls
// arriving during the flush wait in the queue for the next collect.
func (b *batcher) collect(first *predictCall) {
	batch := append(make([]*predictCall, 0, b.maxBatch), first)
fill:
	for len(batch) < b.maxBatch {
		select {
		case call := <-b.in:
			batch = append(batch, call)
		default:
			break fill
		}
	}
	b.flush(batch)
}

// flush runs one batched predict pass and wakes every caller. A panicking
// model (e.g. a dimension mismatch deep in a kernel) fails only this batch:
// the recover converts it into a per-call error and the batcher keeps
// serving.
func (b *batcher) flush(batch []*predictCall) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: %s predict panicked: %v", b.name, r)
			for _, call := range batch {
				call.err = err
				close(call.done)
			}
		}
	}()
	model := b.loadModel()
	X := make([][]float64, len(batch))
	for i, call := range batch {
		X[i] = call.vec
	}
	out := make([]int, len(batch))
	ml.PredictBatch(model, X, out)
	b.batches.Add(1)
	b.coalesced.Add(int64(len(batch)))
	for i, call := range batch {
		call.class = out[i]
		call.batch = len(batch)
		close(call.done)
	}
}
