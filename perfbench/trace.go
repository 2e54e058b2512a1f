package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span of the call above it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the recorder's memory; later spans are counted but
// not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	next    uint64
	dropped int64
	// open maps a request key to the innermost open span re-issued for
	// it, so decorators that see only a wire message (transports carry
	// no context) can attach their span to the call above them.
	open map[uint64]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: make(map[uint64]uint64)} }

// active is a span in progress.
type active struct {
	tr     *tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  int64
	keyed  bool
}

// begin opens a span. With keyed set, decorators that later see a
// message with the same request key attach to it as children.
func (tr *tracer) begin(name string, parent, req uint64, keyed bool) *active {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.next++
	a := &active{tr: tr, id: tr.next, parent: parent, req: req, name: name, keyed: keyed}
	if keyed {
		tr.open[req] = a.id
	}
	tr.mu.Unlock()
	a.start = int64(time.Since(tr.t0))
	return a
}

// childKeyed opens a span under the open span of req and keys it, so
// deeper decorators attach below it.
func (tr *tracer) childKeyed(name string, req uint64) *active {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	parent := tr.open[req]
	tr.mu.Unlock()
	return tr.begin(name, parent, req, true)
}

func (a *active) end() {
	if a == nil {
		return
	}
	end := int64(time.Since(a.tr.t0))
	tr := a.tr
	tr.mu.Lock()
	if a.keyed && tr.open[a.req] == a.id {
		delete(tr.open, a.req)
	}
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, span{ID: a.id, Parent: a.parent, Req: a.req, Name: a.name, Start: a.start, End: end})
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
}

// timeSpan runs fn inside a span named name under parent.
func (tr *tracer) timeSpan(name string, parent, req uint64, fn func()) {
	a := tr.begin(name, parent, req, false)
	fn()
	a.end()
}

// spanStats summarizes all spans of one name, in microseconds.
type spanStats struct {
	n      int
	meanUs float64
	selfUs float64
}

// summarize computes, per span name, the count, mean duration and mean
// self time. Self time is a span's duration minus the
// part of its interval that its child spans cover.
func (tr *tracer) summarize() map[string]spanStats {
	out := map[string]spanStats{}
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(covered(s, children[s.ID]))/1e3)
	}
	for name, d := range durs {
		out[name] = spanStats{n: len(d), meanUs: mean(d), selfUs: mean(selfs[name])}
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids' intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeTrace writes every recorded span of a traced run as JSON.
func writeTrace(tr *tracer, p params, rep *report) error {
	if err := tr.write(p.traceFile); err != nil {
		return err
	}
	rep.layer["trace.spans"] = float64(len(tr.spans))
	return nil
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{tr.dropped, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reqKey identifies a request by its content, so the spans of one
// request share an identifier across layers that pass only the wire
// message along: a query by its time and position, an upload by its
// first tuple.
func reqKey(t, x, y float64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range [3]float64{t, x, y} {
		h ^= math.Float64bits(f)
		h *= 1099511628211
	}
	return h
}

func tuplesKey(ts []tuple.Raw) uint64 {
	if len(ts) == 0 {
		return 0
	}
	return reqKey(ts[0].T, ts[0].X, ts[0].Y)
}

// msgKey returns the request key of a wire message, looking through
// forwarding envelopes.
func msgKey(m wire.Message) uint64 {
	switch v := m.(type) {
	case wire.Forwarded:
		return msgKey(v.Inner)
	case wire.QueryRequest:
		return reqKey(v.T, v.X, v.Y)
	case wire.IngestRequest:
		return tuplesKey(v.Tuples)
	case wire.ReplicaIngest:
		return tuplesKey(v.Tuples)
	case wire.ModelRequest:
		return reqKey(v.T, -1, -1)
	case wire.HeatmapRequest:
		return reqKey(v.T, -2, -2)
	}
	return 0
}
