package ur

import (
	"fmt"
	"strings"
	"sync"

	"webbase/internal/relation"
	"webbase/internal/web"
)

// This file is the per-object result delivery surface behind streaming
// query answers. The UR answer is the union of independent maximal
// objects, so partial answers are already well-defined: as soon as an
// object's evaluation finishes, its contribution to the answer is final
// and can be shipped to the caller while the remaining objects are still
// navigating their sites.
//
// Determinism is preserved by a plan-order gate: workers complete
// objects in arbitrary order, but deliveries are released only for the
// contiguous plan-order prefix of completed objects, and a shared
// seen-set drops tuples an earlier object already contributed — exactly
// the first-occurrence discipline of Relation.Union followed by
// Distinct. The concatenation of all delivered tuples is therefore
// byte-identical to Result.Relation's tuple sequence, whatever the
// worker count.

// ObjectDelivery is one maximal object's finished contribution to a
// streaming answer.
type ObjectDelivery struct {
	// Index is the object's plan-order position, or -1 for the single
	// buffered terminal delivery of an ORDER BY / LIMIT query.
	Index int
	// Seq is the delivery's 1-based position in the delivery sequence.
	// Deliveries are released in plan order, so Seq is deterministic for a
	// given query and web state whatever the worker count — it is the
	// resumable-stream offset: a consumer that has processed deliveries
	// through Seq k can re-run the query and skip everything with Seq <= k,
	// and the stitched sequence is identical to an uninterrupted run.
	Seq int
	// Object is the minimal-cover relation set that was evaluated (empty
	// for the buffered terminal delivery).
	Object []string
	// Tuples are the new unique tuples this object contributed — tuples
	// an earlier plan-order object already delivered are omitted, so the
	// concatenation across deliveries is duplicate-free.
	Tuples []relation.Tuple
	// Failure is non-nil when the object degraded out of the answer
	// (site outage or drift under non-strict evaluation).
	Failure *SiteFailure
	// Skipped is non-empty when the object was skipped on binding
	// grounds; it carries the same rendering as Result.Skipped.
	Skipped string
	// Buffered marks the single terminal delivery of a query whose
	// ORDER BY / LIMIT forbids incremental streaming: all tuples arrive
	// at once, post-sort and post-truncation.
	Buffered bool
}

// ObjectSink receives deliveries in plan order. Calls are serialized by
// the gate; the sink must not re-enter evaluation. The gate's
// serialization covers only its own calls: a sink that is also written
// by out-of-band goroutines — the server's keepalive ticker emits
// liveness events between deliveries — must carry its own lock, because
// the gate neither knows about nor orders those writers.
type ObjectSink func(ObjectDelivery)

// streamGate buffers out-of-order object completions and releases them
// to the sink strictly in plan order, deduplicating tuples across
// objects with first-occurrence semantics.
type streamGate struct {
	sink    ObjectSink
	objects []PlanObject
	strict  bool

	mu      sync.Mutex
	next    int                // next plan index eligible for delivery
	ready   map[int]*gateEntry // completed but not yet deliverable
	seen    map[string]bool    // tuple keys already delivered
	aborted bool               // a fatal error stops all further delivery
}

type gateEntry struct {
	rel *relation.Relation
	err error
}

func newStreamGate(sink ObjectSink, objects []PlanObject, strict bool) *streamGate {
	return &streamGate{
		sink:    sink,
		objects: objects,
		strict:  strict,
		ready:   make(map[int]*gateEntry, len(objects)),
		seen:    make(map[string]bool),
	}
}

// complete records object i's outcome and flushes the contiguous
// plan-order prefix of completed objects to the sink. Safe for
// concurrent use by the worker pool; sink calls happen under the gate
// lock, so they are serialized and ordered.
func (g *streamGate) complete(i int, rel *relation.Relation, err error) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ready[i] = &gateEntry{rel: rel, err: err}
	for !g.aborted {
		e, ok := g.ready[g.next]
		if !ok {
			return
		}
		delete(g.ready, g.next)
		g.deliver(g.next, e)
		g.next++
	}
}

// deliver classifies one completed object exactly as Eval's
// post-loop does and emits the matching delivery. A fatal error (neither
// a binding failure nor a degradable outage/drift) aborts the stream:
// the query is going to return an error and no further objects are
// observable parts of the answer. Exactly one delivery is emitted per
// plan-order object, so the sequence number is simply i+1 — the
// plan-order index shifted to leave 0 for a stream's preamble.
func (g *streamGate) deliver(i int, e *gateEntry) {
	obj := g.objects[i]
	switch {
	case e.err == nil:
		var fresh []relation.Tuple
		if e.rel != nil {
			for _, t := range e.rel.Tuples() {
				if k := t.Key(); !g.seen[k] {
					g.seen[k] = true
					fresh = append(fresh, t)
				}
			}
		}
		g.sink(ObjectDelivery{Index: i, Seq: i + 1, Object: obj.Relations, Tuples: fresh})
	case isBindingFailure(e.err):
		g.sink(ObjectDelivery{Index: i, Seq: i + 1, Object: obj.Relations,
			Skipped: fmt.Sprintf("{%s}: %v", strings.Join(obj.Relations, ", "), e.err)})
	case (web.IsOutage(e.err) || web.IsDrift(e.err)) && !g.strict:
		kind := FailureOutage
		if web.IsDrift(e.err) {
			kind = FailureDrift
		}
		g.sink(ObjectDelivery{Index: i, Seq: i + 1, Object: obj.Relations, Failure: &SiteFailure{
			Object: obj.Relations,
			Host:   web.FailingHost(e.err),
			Kind:   kind,
			Err:    e.err.Error(),
		}})
	default:
		g.aborted = true
	}
}
