package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Times are nanoseconds since the
// recorder's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory; they are written out once, when
// the run ends, so the traced run does no I/O of its own.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// id allocates a span id when the span starts, so children can name
// their parent before the parent ends.
func (r *spanRecorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *spanRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans as gzip-compressed JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span with at least one child, its self
// time: its duration minus the part of its interval that the union of
// its children's intervals covers. Overlapping children (parallel page
// loads under one request) are counted once, not once per child.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(children))
	for id, ivs := range children {
		p, ok := byID[id]
		if !ok {
			continue
		}
		out[id] = p.dur() - coveredWithin(ivs, p.Start, p.End)
	}
	return out
}

// coveredWithin returns the length of the union of intervals, clipped to
// [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}
