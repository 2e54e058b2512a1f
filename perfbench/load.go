package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/heatmap"
	"repro/internal/tuple"
)

// runLoad runs the client loops for d of load time, in segments of
// probeEvery. After each segment the load pauses, quiesce (if set)
// waits for the program's background work, and the host probe runs.
// pause (if set) is told how long the load stood still, so that an
// open-loop schedule can skip the gap.
func runLoad(d time.Duration, pr *hostProbe, quiesce func(), pause func(time.Duration), loops ...func(deadline time.Time)) {
	for left := d; left > 0; {
		seg := min(left, probeEvery)
		deadline := time.Now().Add(seg)
		runFor(deadline, loops...)
		left -= seg
		if quiesce != nil {
			quiesce()
		}
		pr.point()
		if pause != nil {
			pause(time.Since(deadline))
		}
	}
}

// runFor runs each client loop on its own goroutine until deadline and
// waits for all of them.
func runFor(deadline time.Time, loops ...func(deadline time.Time)) {
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(deadline)
		}()
	}
	wg.Wait()
}

// uploader replays uploads open-loop: upload i is due at start + i/rate
// whether or not earlier ones were acknowledged, and its ack latency is
// timed from when it was due.
type uploader struct {
	rate    float64
	uploads []tuple.Batch
	send    func(b tuple.Batch) error
	// onSend runs before each upload is sent and onAck after each
	// successful one, in the uploader goroutine.
	onSend func(i int, due time.Time)
	onAck  func(i int, due time.Time)

	start time.Time
	next  int

	ack   samples
	late  []float64 // ms the generator started each upload after it was due
	acked []int
	fails int64
}

// run sends every upload due before deadline.
func (u *uploader) run(deadline time.Time) {
	if u.start.IsZero() {
		u.start = time.Now()
	}
	interval := time.Duration(float64(time.Second) / u.rate)
	for ; u.next < len(u.uploads); u.next++ {
		due := u.start.Add(time.Duration(u.next) * interval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		u.late = append(u.late, float64(time.Since(due))/float64(time.Millisecond))
		if u.onSend != nil {
			u.onSend(u.next, due)
		}
		if err := u.send(u.uploads[u.next]); err != nil {
			u.fails++
			continue
		}
		u.ack.add(time.Since(due))
		u.acked = append(u.acked, u.next)
		if u.onAck != nil {
			u.onAck(u.next, due)
		}
	}
}

// backlogGrows reports whether the generator fell further and further
// behind its schedule: the last quarter of uploads started at least five
// intervals later than the first quarter did. A rate the program cannot
// sustain shows up here instead of as a latency.
func (u *uploader) backlogGrows() bool {
	n := len(u.late)
	if n < 8 {
		return false
	}
	interval := 1000 / u.rate
	first, last := median(u.late[:n/4]), median(u.late[n-n/4:])
	return last-first > 5*interval && u.late[n-1] > 5*interval
}

func (u *uploader) report(rep *report) {
	rep.extraf("ingest_ack_p50_ms", u.ack.quantile(0.50), "ms")
	rep.extraf("ingest_ack_p95_ms", u.ack.quantile(0.95), "ms")
	rep.extraf("ingest_acks", float64(u.ack.count()), "count")
	rep.extraf("upload_late_p50_ms", median(u.late), "ms")
	rep.extraf("upload_late_max_ms", quantile(u.late, 1), "ms")
	if u.backlogGrows() {
		rep.fail("upload backlog grows at %.0f uploads/s: the generator started its last uploads %.0f ms late", u.rate, u.late[len(u.late)-1])
	}
}

// heapLiveMB is HeapInuse after a full collection, in MiB. The second
// collection empties the sync.Pool victim caches the first one leaves.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// allocsPer runs fn n times and returns the mean allocations and bytes
// allocated per call. It is used only while no load runs.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// errCount counts failed operations and keeps the first failure.
type errCount struct {
	attempted, failed atomic.Int64
	first             atomic.Value
}

func (e *errCount) fail(err error) {
	e.failed.Add(1)
	if err != nil {
		e.first.CompareAndSwap(nil, err.Error())
	}
}

func (e *errCount) report(rep *report) {
	rep.attempted += e.attempted.Load()
	rep.failed += e.failed.Load()
	rep.extraf("failed_ratio", float64(e.failed.Load())/float64(max(e.attempted.Load(), 1)), "ratio")
	if s, ok := e.first.Load().(string); ok {
		rep.extra = append(rep.extra, "# first failure: "+s)
	}
}

// phaseStats are the latencies of one measured phase.
type phaseStats struct {
	start                           time.Time
	elapsed                         float64
	point, route, heat, wire, model samples
}

// newPhase starts a measured phase, after a collection so that every
// run starts its measurement with the set-up's garbage gone.
func newPhase() *phaseStats {
	runtime.GC()
	return &phaseStats{start: time.Now()}
}

func (s *phaseStats) end() { s.elapsed = since(s.start) }

// whole is the number of whole seconds the phase ran.
func (s *phaseStats) whole() int { return max(int(s.elapsed), 1) }

// qps is the median, over one-second slices, of point queries answered
// per second, HTTP and wire together.
func (s *phaseStats) qps() float64 {
	n := s.whole()
	http, wire := s.point.slices(s.start, n), s.wire.slices(s.start, n)
	per := make([]float64, n)
	for i := range per {
		per[i] = float64(len(http[i]) + len(wire[i]))
	}
	return median(per)
}

// writePhase runs an uploader and an HTTP query client side by side
// for d of load time. The uploader's schedule skips the probe pauses.
func writePhase(up *uploader, mix *httpMix, pr *hostProbe, quiesce func(), d time.Duration) *phaseStats {
	st := newPhase()
	runLoad(d, pr, quiesce, func(gap time.Duration) { up.start = up.start.Add(gap) },
		up.run, func(deadline time.Time) { mix.run(st, deadline) })
	st.end()
	return st
}

// measure runs phase for total, or, in a traced run, an untraced half
// and then a traced half, recording the tracing overhead as the ratio
// of the two. It returns the phase the metrics come from.
func measure(rep *report, traced bool, total time.Duration, phase func(time.Duration) *phaseStats) *phaseStats {
	if !traced {
		return phase(total)
	}
	base := phase(total / 2)
	tracing.Store(true)
	st := phase(total / 2)
	tracing.Store(false)
	rep.layer["trace.overhead.query_p50_ratio"] = st.point.quantile(0.5) / base.point.quantile(0.5)
	rep.layer["trace.overhead.query_qps_ratio"] = st.qps() / base.qps()
	return st
}

// p99 is the point-query tail, taken per one-second slice.
func (s *phaseStats) p99() float64 { return s.point.sliceQuantile(0.99, s.start, s.whole()) }

// report records the HTTP query metrics every workload shares. The
// throughput and the tail are printed, not bounded: on a shared host
// they follow the CPU time other tenants take (see probe.go).
func (s *phaseStats) report(rep *report) {
	rep.e2e["query_p50_ms"] = s.point.quantile(0.50)
	rep.e2e["route_p50_ms"] = s.route.quantile(0.50)
	rep.e2e["heatmap_p50_ms"] = s.heat.quantile(0.50)
	rep.extraf("query_qps", s.qps(), "1/s")
	rep.extraf("query_p99_ms", s.p99(), "ms")
	rep.extraf("samples.point", float64(s.point.count()), "count")
	rep.extraf("samples.route", float64(s.route.count()), "count")
	rep.extraf("samples.heatmap", float64(s.heat.count()), "count")
}

// httpMix is one HTTP client issuing, closed loop, 90% point queries,
// 9% 20-point route queries and 1% heatmaps. times draws the stream
// time of the next query and the start time of the next route.
type httpMix struct {
	hc    *httpClient
	rng   *rand.Rand
	times func(rng *rand.Rand) (t, route float64)
	// where draws query positions; nil means uniform over the region.
	where func(rng *rand.Rand) (x, y float64)
	errs  *errCount

	// Callbacks run after each successful answer, on the client goroutine.
	onPoint func(i int, req repro.Request, v float64)
	onRoute func(i int, pts []repro.Request, vs []float64)
	onHeat  func(i int, t float64, g *heatmap.Grid)
}

// run issues requests until deadline.
func (m *httpMix) run(st *phaseStats, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		u := m.rng.Float64()
		t, tRoute := m.times(m.rng)
		where := m.where
		if where == nil {
			where = randPoint
		}
		x, y := where(m.rng)
		m.errs.attempted.Add(1)
		t0 := time.Now()
		switch {
		case u < 0.90:
			req := repro.Request{T: t, X: x, Y: y, Pollutant: repro.CO2}
			v, err := m.hc.point(req)
			if err != nil {
				m.errs.fail(err)
				continue
			}
			st.point.add(time.Since(t0))
			if m.onPoint != nil {
				m.onPoint(i, req, v)
			}
		case u < 0.99:
			pts := randRoute(m.rng, tRoute, x, y)
			vs, err := m.hc.route(pts)
			if err != nil {
				m.errs.fail(err)
				continue
			}
			st.route.add(time.Since(t0))
			if m.onRoute != nil {
				m.onRoute(i, pts, vs)
			}
		default:
			g, err := m.hc.heatmap(t)
			if err != nil {
				m.errs.fail(err)
				continue
			}
			st.heat.add(time.Since(t0))
			if m.onHeat != nil {
				m.onHeat(i, t, g)
			}
		}
	}
}
