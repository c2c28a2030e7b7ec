package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"webbase/internal/trace"
)

// This file is the admission gate: the outermost overload defense. Under
// a burst, every query admitted past capacity makes every other query
// slower — the dependent-join fan-out multiplies one admitted query into
// dozens of handle invocations competing for the same host slots. The
// gate bounds concurrently executing queries, parks a bounded FIFO queue
// of waiters behind them, and sheds everything beyond that immediately
// with ErrShedded. Shedding at admission (rather than deep in the worker
// pool) means a rejected query costs microseconds of mutex work instead
// of pages, goroutines and host slots — the caller learns "try later"
// before the system spends anything on it.

// ErrShedded is returned when the admission gate rejects a query because
// the maximum number of queries are already executing and the wait queue
// is full. Match with errors.Is. A shed query performed no work: no
// pages were fetched, no trace was started, no stats were accrued.
var ErrShedded = errors.New("core: query shed: admission gate and queue are full")

// QueryClass is a query's admission priority. Under overload the gate
// sheds the lowest class first: an arriving interactive query evicts a
// queued batch query rather than being shed itself, and freed slots go to
// the highest-class waiter. Classes never preempt executing queries —
// they only decide who waits and who is shed.
type QueryClass uint8

const (
	// ClassInteractive is the default: a user is waiting on the answer.
	ClassInteractive QueryClass = iota
	// ClassBatch marks background work (report sweeps, cache warmers)
	// that should be the first shed under load.
	ClassBatch
)

// String renders the class name used in shed metrics.
func (c QueryClass) String() string {
	if c == ClassBatch {
		return "batch"
	}
	return "interactive"
}

// queryClassKey carries a per-query class override (see WithQueryClass).
type queryClassKey struct{}

// WithQueryClass marks ctx so queries issued under it are admitted at the
// given class; unmarked queries are ClassInteractive.
func WithQueryClass(ctx context.Context, c QueryClass) context.Context {
	return context.WithValue(ctx, queryClassKey{}, c)
}

func queryClassFrom(ctx context.Context) QueryClass {
	c, _ := ctx.Value(queryClassKey{}).(QueryClass) // zero value: ClassInteractive
	return c
}

// admitWaiter is one queued query; granted is closed by release when an
// executing slot transfers to it, shedded by an arriving higher-class
// query that evicted it.
type admitWaiter struct {
	class   QueryClass
	granted chan struct{}
	shedded chan struct{}
}

// admission is the bounded gate. A nil *admission admits everything
// (gate disabled), so callers can use it unconditionally.
type admission struct {
	metrics *trace.Registry
	clock   func() time.Time

	mu       sync.Mutex
	max      int // concurrently executing queries
	depth    int // bounded wait queue behind them
	inflight int
	queue    []*admitWaiter // FIFO: index 0 is the longest-waiting query
}

// newAdmission builds a gate of max executing slots and a wait queue of
// depth. max <= 0 disables the gate (returns nil).
func newAdmission(max, depth int, metrics *trace.Registry, clock func() time.Time) *admission {
	if max <= 0 {
		return nil
	}
	if depth < 0 {
		depth = 0
	}
	if clock == nil {
		clock = time.Now
	}
	return &admission{metrics: metrics, clock: clock, max: max, depth: depth}
}

// acquire blocks until the query may execute, returning how long it
// waited in the queue. When the gate and the queue are both full, a
// query is shed — but class decides which one: an arriving query evicts
// the newest queued waiter of a strictly lower class before shedding
// itself. When ctx is cancelled while queued it returns ctx.Err(). The
// caller must release() after a nil error, and must not after a non-nil
// one.
func (a *admission) acquire(ctx context.Context, class QueryClass) (time.Duration, error) {
	if a == nil {
		return 0, nil
	}
	a.mu.Lock()
	if a.inflight < a.max {
		a.inflight++
		a.mu.Unlock()
		return 0, nil
	}
	if len(a.queue) >= a.depth {
		// Queue full: evict the newest waiter of the lowest class below
		// ours (newest so the longest-waiting batch query is the last of
		// its class to go); if nobody outranks, shed ourselves.
		victim := -1
		for i := len(a.queue) - 1; i >= 0; i-- {
			if a.queue[i].class > class && (victim < 0 || a.queue[i].class > a.queue[victim].class) {
				victim = i
			}
		}
		if victim < 0 {
			a.mu.Unlock()
			a.shed(class)
			return 0, ErrShedded
		}
		v := a.queue[victim]
		a.queue = append(a.queue[:victim], a.queue[victim+1:]...)
		close(v.shedded)
		a.shed(v.class)
	}
	w := &admitWaiter{class: class, granted: make(chan struct{}), shedded: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.gaugeLocked()
	a.mu.Unlock()

	start := a.clock()
	select {
	case <-w.granted:
		return a.clock().Sub(start), nil
	case <-w.shedded:
		return a.clock().Sub(start), ErrShedded
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.granted:
			// The grant raced the cancellation: we own a slot after all.
			// Hand it on rather than strand it.
			a.mu.Unlock()
			a.release()
		default:
			// Not granted, so w is either still queued or was evicted
			// (only release dequeues-and-grants, under this lock).
			// Remove it so it stops occupying one of the depth slots.
			for i, q := range a.queue {
				if q == w {
					a.queue = append(a.queue[:i], a.queue[i+1:]...)
					break
				}
			}
			a.gaugeLocked()
			a.mu.Unlock()
		}
		return a.clock().Sub(start), ctx.Err()
	}
}

// release returns a slot: the highest-class queued query inherits it
// (FIFO within a class), otherwise the gate's inflight count drops.
func (a *admission) release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queue) > 0 {
		best := 0
		for i, q := range a.queue {
			if q.class < a.queue[best].class {
				best = i
			}
		}
		w := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		// The slot transfers: inflight is unchanged.
		close(w.granted)
	} else {
		a.inflight--
	}
	a.gaugeLocked()
}

// shed counts one shed query, overall and per class.
func (a *admission) shed(class QueryClass) {
	a.metrics.Counter("queries_shed_total").Add(1)
	a.metrics.Counter(`queries_shed_total{class="` + class.String() + `"}`).Add(1)
}

// gaugeLocked publishes queue/inflight depth; a.mu must be held.
func (a *admission) gaugeLocked() {
	a.metrics.Gauge("admission_queue_depth").Set(int64(len(a.queue)))
	a.metrics.Gauge("admission_inflight").Set(int64(a.inflight))
}
