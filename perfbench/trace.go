package main

import (
	"strings"
	"sync"
	"time"
)

// tracer collects the spans the benchmark records around its own calls into
// each layer's public functions. A span is named "<layer>.<call>"; its self
// time is its duration minus the time its child spans cover. Spans stay in
// memory and are summed per name when each op finishes.
type tracer struct {
	mu     sync.Mutex
	self   map[string]time.Duration
	calls  map[string]int64
	counts map[string]float64
	ops    int64
	opTime time.Duration // sum of traced op durations: the end-to-end time spans are attributed against
}

func newTracer() *tracer {
	return &tracer{
		self:   map[string]time.Duration{},
		calls:  map[string]int64{},
		counts: map[string]float64{},
	}
}

// opTrace records the spans of one op. An op runs on one goroutine, so a
// stack of open spans gives each span its parent. A nil *opTrace records
// nothing: the decomposed paths run untraced when they compute reference
// answers.
type opTrace struct {
	tr     *tracer
	start  time.Time
	stack  []frame
	self   map[string]time.Duration
	calls  map[string]int64
	counts map[string]float64
}

type frame struct {
	name     string
	start    time.Time
	children time.Duration
}

// begin opens an op; a nil tracer gives a nil op.
func (t *tracer) begin() *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{
		tr:     t,
		start:  time.Now(),
		self:   map[string]time.Duration{},
		calls:  map[string]int64{},
		counts: map[string]float64{},
	}
}

// span opens a span and returns the function that closes it.
func (o *opTrace) span(name string) func() {
	if o == nil {
		return func() {}
	}
	o.stack = append(o.stack, frame{name: name, start: time.Now()})
	return o.end
}

func (o *opTrace) end() {
	top := o.stack[len(o.stack)-1]
	o.stack = o.stack[:len(o.stack)-1]
	d := time.Since(top.start)
	o.self[top.name] += d - top.children
	o.calls[top.name]++
	if n := len(o.stack); n > 0 {
		o.stack[n-1].children += d
	}
}

// count adds v to a named counter (instructions, steps, bytes).
func (o *opTrace) count(name string, v float64) {
	if o != nil {
		o.counts[name] += v
	}
}

// finish closes the op and folds its spans into the tracer.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	d := time.Since(o.start)
	t := o.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.opTime += d
	for k, v := range o.self {
		t.self[k] += v
	}
	for k, v := range o.calls {
		t.calls[k] += v
	}
	for k, v := range o.counts {
		t.counts[k] += v
	}
}

// add records layer time observed outside an op trace: the serve workload
// reads it off its middleware and the program's own counters.
func (t *tracer) add(name string, d time.Duration, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.self[name] += d
	t.calls[name] += calls
}

// selfSum is the total self time over every span.
func (t *tracer) selfSum() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// layerSelf sums self time by layer, the span name's first element.
func (t *tracer) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range t.self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += d
	}
	return out
}
