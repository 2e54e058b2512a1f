package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/heatmap"
	"repro/internal/proto"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// query_read sizes. The full size is bounded by the benchmark's time
// budget: every run sets up setupReps times.
const (
	qrDays      = 10.0
	qrSmokeDays = 0.5
	setupReps   = 3
	// keepAnswers bounds how many answers of each kind a run keeps for
	// its correctness check.
	keepAnswers = 4000
	// sampleEvery is how often a traced run re-issues a live request at
	// the layers below the edge.
	sampleEvery = 16
)

func queryReadInfo(days float64) workloadInfo {
	return workloadInfo{
		Name: "query_read",
		Why:  "read-only serving after a restart: the cover query path does nearly all the work, ingest-side changes should show no change",
		Data: fmt.Sprintf("%d buses x %.1f days durable (%d one-hour windows, ~%d tuples), columnar + cover snapshot, checkpointed and reopened",
			fleetSize, days, int(days*24), int(days*24*tuplesPerWindow)),
		Mix: "client 1 HTTP closed loop: 90% GET /v1/query, 9% 20-point POST /v1/query/continuous, 1% GET /v1/heatmap; " +
			"client 2 wire closed loop: QueryRequest per 60 s of stream time plus ModelRequest on entering a window",
	}
}

// pointAnswer is one point query and the value a client saw.
type pointAnswer struct {
	req repro.Request
	got float64
}

type routeAnswer struct {
	pts []repro.Request
	got []float64
}

type heatAnswer struct {
	t   float64
	got *heatmap.Grid
}

type modelAnswer struct {
	t   float64
	got wire.ModelResponse
}

// answers collects what the clients saw, up to keepAnswers per kind.
type answers struct {
	mu     sync.Mutex
	points []pointAnswer
	wire   []pointAnswer
	routes []routeAnswer
	heats  []heatAnswer
	models []modelAnswer
}

// setupQueryRead generates the data, loads it durably, checkpoints,
// closes, reopens and warms every window. It returns the open node and
// the reopen time.
func setupQueryRead(p params, days float64, cfg repro.Config, tr *tracer) (node, time.Duration, error) {
	os.RemoveAll(cfg.Dir)
	data, err := fleetData(p.seed, days*day)
	if err != nil {
		return nil, 0, err
	}
	n, err := openNode(cfg, tr)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	wins := byWindow(data)
	for c := 0; c < int(days*24); c++ {
		if err := n.Ingest(ctx, repro.CO2, wins[c]); err != nil {
			n.Close()
			return nil, 0, err
		}
	}
	n.WaitMaintenance()
	if err := n.Checkpoint(); err != nil {
		n.Close()
		return nil, 0, err
	}
	if err := n.Close(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if n, err = openNode(cfg, tr); err != nil {
		return nil, 0, err
	}
	reopen := time.Since(t0)
	n.WaitMaintenance()
	// Warm every window on two goroutines, the way the first queries
	// after a restart would.
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := g; c < int(days*24); c += 2 {
				if _, err := n.Query(ctx, repro.Request{T: (float64(c) + 0.5) * windowSeconds, X: 1000, Y: 800, Pollutant: repro.CO2}); err != nil {
					errc <- fmt.Errorf("warm window %d: %w", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		n.Close()
		return nil, 0, err
	}
	return n, reopen, nil
}

func runQueryRead(p params) (*report, error) {
	days, reps := qrDays, setupReps
	if p.smoke {
		days, reps = qrSmokeDays, 1
	}
	rep := newReport()
	rep.workload = queryReadInfo(days)
	dataDir := filepath.Join(p.dir, "query_read")
	cfg := repro.Config{
		WindowSeconds: windowSeconds,
		Dir:           dataDir,
		Columnar:      repro.ColumnarConfig{Enabled: true},
		CoverSnapshot: filepath.Join(dataDir, "covers"),
	}
	rep.env = environment(p.seed, dataDir, "SyncEveryBatch (zero-value Config.Sync)")
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}

	var setups []float64
	var n node
	var reopen time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if n, reopen, err = setupQueryRead(p, days, cfg, tr); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		p.setupProbe.point()
		if i < reps-1 {
			n.Close()
		}
	}
	defer n.Close()
	rep.e2e["setup_s"] = median(setups)
	rep.layer["store.reopen_ms"] = float64(reopen) / float64(time.Millisecond)

	var h = n.Handler()
	if tr != nil {
		h = timedHTTP{h: h, tr: tr}
	}
	hs, err := serveHTTP(h)
	if err != nil {
		return nil, err
	}
	defer hs.Close()
	tcp, addr, err := n.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	hc := newHTTPClient(hs.base)
	defer hc.Close()
	wc, err := proto.Dial(addr.String(), proto.ServerConfig{})
	if err != nil {
		return nil, err
	}
	defer wc.Close()

	q := &qrLoad{n: n, tr: tr, hc: hc, wc: wc, span: days * day, ans: &answers{}, win: -1, probe: p.loadProbe}
	q.rng1 = rand.New(rand.NewSource(p.seed*7 + 1))
	q.rng2 = rand.New(rand.NewSource(p.seed*7 + 2))
	q.stream = q.rng2.Float64() * q.span
	q.report(rep, measure(rep, tr != nil, time.Duration(p.seconds*float64(time.Second)), q.phase))
	q.check(p, rep)
	if tr != nil {
		q.quiescent(rep)
		q.layers(rep)
		if err := writeTrace(tr, p, rep); err != nil {
			return nil, err
		}
	}
	// The kept answers grow with throughput; drop them so the heap
	// measures the platform, not the harness.
	q.ans = nil
	rep.e2e["heap_live_mb"] = heapLiveMB()
	return rep, nil
}

// qrLoad is the running query_read load.
type qrLoad struct {
	n      node
	tr     *tracer
	hc     *httpClient
	wc     *proto.Client
	span   float64 // stream seconds covered by the data
	rng1   *rand.Rand
	rng2   *rand.Rand
	stream float64 // client 2's stream time
	win    int     // client 2's window, -1 before its first request
	probe  *hostProbe
	ans    *answers

	errs                   errCount
	codecQuery, codecModel []float64 // wire encode+decode, us
	modelBytes             []float64
}

func (q *qrLoad) phase(d time.Duration) *phaseStats {
	st := newPhase()
	mix := q.httpMix()
	runLoad(d, q.probe, nil, nil,
		func(deadline time.Time) { mix.run(st, deadline) },
		func(deadline time.Time) { q.wireClient(st, deadline) },
	)
	st.end()
	return st
}

// httpMix is client 1: HTTP closed loop over the whole data span.
func (q *qrLoad) httpMix() *httpMix {
	ctx := context.Background()
	return &httpMix{
		hc:   q.hc,
		rng:  q.rng1,
		errs: &q.errs,
		times: func(rng *rand.Rand) (float64, float64) {
			u := rng.Float64()
			return u * q.span, u * (q.span - routePoints*30)
		},
		onPoint: func(i int, req repro.Request, v float64) {
			q.ans.keepPoint(&q.ans.points, pointAnswer{req, v})
			if i%sampleEvery == 0 {
				reissuePoint(ctx, q.tr, q.n, req)
			}
		},
		onRoute: func(i int, pts []repro.Request, vs []float64) {
			q.ans.mu.Lock()
			if len(q.ans.routes) < keepAnswers {
				q.ans.routes = append(q.ans.routes, routeAnswer{pts, vs})
			}
			q.ans.mu.Unlock()
			if i%4 == 0 {
				reissueRoute(ctx, q.tr, q.n, pts)
			}
		},
		onHeat: func(_ int, t float64, g *heatmap.Grid) {
			q.ans.mu.Lock()
			if len(q.ans.heats) < keepAnswers {
				q.ans.heats = append(q.ans.heats, heatAnswer{t, g})
			}
			q.ans.mu.Unlock()
			reissueHeatmap(ctx, q.tr, q.n, t)
		},
	}
}

func (a *answers) keepPoint(dst *[]pointAnswer, pa pointAnswer) {
	a.mu.Lock()
	if len(*dst) < keepAnswers {
		*dst = append(*dst, pa)
	}
	a.mu.Unlock()
}

// wireClient is client 2: a model-cache phone walking forward in stream
// time over the binary protocol.
func (q *qrLoad) wireClient(st *phaseStats, deadline time.Time) {
	ctx := context.Background()
	for i := 0; time.Now().Before(deadline); i++ {
		q.stream += 60
		if q.stream >= q.span {
			q.stream -= q.span
		}
		if c := tuple.WindowIndex(q.stream, windowSeconds); c != q.win {
			q.win = c
			req := wire.ModelRequest{T: q.stream, Pollutant: repro.CO2}
			q.errs.attempted.Add(1)
			t0 := time.Now()
			resp, err := q.exchange("proto.client.model", req)
			mr, isModel := resp.(wire.ModelResponse)
			if err != nil || !isModel {
				q.errs.fail(wireErr(resp, err))
			} else {
				st.model.add(time.Since(t0))
				q.ans.mu.Lock()
				if len(q.ans.models) < keepAnswers {
					q.ans.models = append(q.ans.models, modelAnswer{req.T, mr})
				}
				q.ans.mu.Unlock()
				if tr := q.tr.on(); tr != nil {
					tr.timeSpan("server.engine.model", 0, 0, func() { q.n.ModelResponse(ctx, repro.CO2, req.T) })
					q.codecModel = append(q.codecModel, codecUs(mr))
					if b, err := wire.Binary.Encode(mr); err == nil {
						q.modelBytes = append(q.modelBytes, float64(len(b)))
					}
				}
			}
		}
		x, y := randPoint(q.rng2)
		req := wire.QueryRequest{T: q.stream, X: x, Y: y, Pollutant: repro.CO2}
		q.errs.attempted.Add(1)
		t0 := time.Now()
		resp, err := q.exchange("proto.client.query", req)
		qr, isValue := resp.(wire.QueryResponse)
		if err != nil || !isValue {
			q.errs.fail(wireErr(resp, err))
			continue
		}
		st.wire.add(time.Since(t0))
		q.ans.keepPoint(&q.ans.wire, pointAnswer{repro.Request{T: req.T, X: x, Y: y, Pollutant: repro.CO2}, qr.Value})
		if q.tr.on() != nil && i%sampleEvery == 0 {
			q.codecQuery = append(q.codecQuery, codecUs(req)+codecUs(qr))
		}
	}
}

// wireErr describes a failed exchange.
func wireErr(resp wire.Message, err error) error {
	if err != nil {
		return err
	}
	if e, ok := resp.(wire.ErrorResponse); ok {
		return errors.New(e.Msg)
	}
	return fmt.Errorf("unexpected %T", resp)
}

// exchange sends one wire request inside a keyed client span, so the
// server-side handler span attaches below it.
func (q *qrLoad) exchange(name string, req wire.Message) (wire.Message, error) {
	a := q.tr.on().begin(name, 0, msgKey(req), true)
	defer a.end()
	return q.wc.Exchange(req)
}

// codecUs times one binary encode plus decode of m, in microseconds.
func codecUs(m wire.Message) float64 {
	t0 := time.Now()
	b, err := wire.Binary.Encode(m)
	if err == nil {
		_, err = wire.Binary.Decode(b)
	}
	if err != nil {
		return 0
	}
	return float64(time.Since(t0)) / 1e3
}

// reissuePoint re-issues a live point query at each layer's entry point
// in stack order: the engine (cover and naive processors), the
// maintainer, the store window under it, and the cover evaluation.
func reissuePoint(ctx context.Context, tr *tracer, n node, req repro.Request) {
	tr = tr.on()
	a, ok := n.(*assembled)
	if tr == nil || !ok {
		return
	}
	key := reqKey(req.T, req.X, req.Y)
	eng := tr.begin("server.engine.query", 0, key, false)
	n.Query(ctx, req)
	eng.end()
	tr.timeSpan("query.naive", 0, key, func() { n.Query(ctx, req, repro.WithProcessor(repro.ProcessorNaive)) })
	cov := tr.begin("core.maintainer.cover_at", eng.id, key, false)
	cv, err := a.engine.Maintainer().CoverAt(req.T)
	cov.end()
	tr.timeSpan("store.window", cov.id, key, func() { a.st.Window(tuple.WindowIndex(req.T, windowSeconds)) })
	if err == nil {
		tr.timeSpan("core.cover.interpolate", eng.id, key, func() { cv.Interpolate(req.T, req.X, req.Y) })
	}
}

// reissueRoute re-issues a live route query at the engine.
func reissueRoute(ctx context.Context, tr *tracer, n node, pts []repro.Request) {
	tr.on().timeSpan("server.engine.route", 0, 0, func() { n.QueryBatch(ctx, pts) })
}

// reissueHeatmap re-issues a heatmap at the engine and at the raster
// beneath it.
func reissueHeatmap(ctx context.Context, tr *tracer, n node, t float64) {
	tr = tr.on()
	a, ok := n.(*assembled)
	if tr == nil || !ok {
		return
	}
	eng := tr.begin("server.engine.heatmap", 0, 0, false)
	n.Heatmap(ctx, repro.CO2, t, heatCells, heatCells)
	eng.end()
	cv, err := a.engine.CoverAt(ctx, repro.CO2, t)
	bounds, okB := a.st.WindowBounds(tuple.WindowIndex(t, windowSeconds))
	if err == nil && okB {
		tr.timeSpan("heatmap.raster", eng.id, 0, func() { heatmap.FromCover(cv, bounds.Inflate(100), heatCells, heatCells, t) })
	}
}

func (q *qrLoad) report(rep *report, st *phaseStats) {
	st.report(rep)
	rep.extraf("wire_query_p50_ms", st.wire.quantile(0.50), "ms")
	rep.extraf("wire_query_p99_ms", st.wire.quantile(0.99), "ms")
	rep.extraf("model_p50_ms", st.model.quantile(0.50), "ms")
	rep.extraf("samples.wire_query", float64(st.wire.count()), "count")
	rep.extraf("samples.model", float64(st.model.count()), "count")
	q.errs.report(rep)
}

// check compares every kept answer with the in-process platform.
func (q *qrLoad) check(p params, rep *report) {
	ctx := context.Background()
	a := q.ans
	corrupt(p, "http_point", func() { a.points[0].got++ })
	corrupt(p, "wire_point", func() { a.wire[0].got++ })
	corrupt(p, "route", func() { a.routes[0].got[3]++ })
	corrupt(p, "heatmap", func() { a.heats[0].got.Values[7]++ })
	corrupt(p, "model", func() { a.models[0].got.ValueHi++ })
	for i, pa := range a.points {
		want, err := q.n.Query(ctx, pa.req)
		if err == nil {
			err = checkValue(fmt.Sprintf("HTTP point query %d", i), pa.got, want)
		}
		if err != nil {
			rep.fail("%v", err)
			break
		}
	}
	for i, pa := range a.wire {
		want, err := q.n.Query(ctx, pa.req)
		if err == nil {
			err = checkValue(fmt.Sprintf("wire point query %d", i), pa.got, want)
		}
		if err != nil {
			rep.fail("%v", err)
			break
		}
	}
	for i, ra := range a.routes {
		if err := checkRoute(ctx, q.n, fmt.Sprintf("route %d", i), ra); err != nil {
			rep.fail("%v", err)
			break
		}
	}
	for i, ha := range a.heats {
		want, err := q.n.Heatmap(ctx, repro.CO2, ha.t, heatCells, heatCells)
		if err == nil {
			err = checkGrid(fmt.Sprintf("heatmap %d", i), ha.got, want)
		}
		if err != nil {
			rep.fail("%v", err)
			break
		}
	}
	for i, ma := range a.models {
		want, err := q.n.ModelResponse(ctx, repro.CO2, ma.t)
		if err == nil {
			err = checkMessage(fmt.Sprintf("model %d", i), ma.got, want)
		}
		if err != nil {
			rep.fail("%v", err)
			break
		}
	}
}

// checkRoute compares a route's values with an in-process QueryBatch.
func checkRoute(ctx context.Context, n interface {
	QueryBatch(context.Context, []repro.Request, ...repro.QueryOption) ([]repro.BatchResult, error)
}, what string, ra routeAnswer) error {
	res, err := n.QueryBatch(ctx, ra.pts)
	if err != nil {
		return fmt.Errorf("%s: %v", what, err)
	}
	want := make([]float64, len(res))
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("%s: point %d: %v", what, i, r.Err)
		}
		want[i] = r.Value
	}
	return checkValues(what, ra.got, want)
}

// corrupt falsifies one kept answer when the run is asked to.
func corrupt(p params, what string, fn func()) {
	if p.corrupt == what {
		fn()
	}
}

// quiescent measures allocation counts with no load running.
func (q *qrLoad) quiescent(rep *report) {
	a, ok := q.n.(*assembled)
	if !ok || len(q.ans.points) == 0 {
		return
	}
	ctx := context.Background()
	pts := q.ans.points
	allocs, bytes := allocsPer(2000, func(i int) { q.n.Query(ctx, pts[i%len(pts)].req) })
	rep.layer["server.engine.query_allocs"] = allocs
	rep.layer["server.engine.query_bytes"] = bytes
	_, wb := allocsPer(500, func(i int) { a.engine.Maintainer().CoverAt(pts[i%len(pts)].req.T) })
	rep.layer["store.window_bytes"] = wb
	if len(q.ans.models) > 0 {
		b, err := wire.Binary.Encode(q.ans.models[0].got)
		if err == nil {
			allocs, _ := allocsPer(500, func(int) { wire.Binary.Decode(b) })
			rep.layer["wire.model_decode_allocs"] = allocs
		}
	}
	cs := q.n.ColumnarStats()
	rep.layer["colblock.materializations"] = float64(cs.Materializations)
	rep.layer["colblock.lazy_windows_end"] = float64(cs.LazyWindows)
	rep.layer["colblock.bytes_read"] = float64(cs.BytesRead)
}

// layers turns the traced half's spans into per-layer metrics.
func (q *qrLoad) layers(rep *report) {
	s := q.tr.summarize()
	m := rep.layer
	m["server.engine.query_us"] = s["server.engine.query"].meanUs
	m["server.http.point_self_us"] = s["server.http.point"].meanUs - s["server.engine.query"].meanUs
	m["server.engine.route_us"] = s["server.engine.route"].meanUs
	m["server.http.route_self_us"] = s["server.http.route"].meanUs - s["server.engine.route"].meanUs
	m["server.engine.heatmap_us"] = s["server.engine.heatmap"].meanUs
	m["server.engine.model_us"] = s["server.engine.model"].meanUs
	m["query.cover_over_naive_ratio"] = s["server.engine.query"].meanUs / s["query.naive"].meanUs
	m["core.maintainer.cover_at_us"] = s["core.maintainer.cover_at"].meanUs
	m["core.cover.interpolate_us"] = s["core.cover.interpolate"].meanUs
	m["store.window_us"] = s["store.window"].meanUs
	m["heatmap.raster_us"] = s["heatmap.raster"].meanUs
	m["proto.exchange_self_us"] = s["proto.client.query"].selfUs
	m["wire.codec_us.query"] = mean(q.codecQuery)
	m["wire.codec_us.model"] = mean(q.codecModel)
	m["wire.model_bytes"] = mean(q.modelBytes)
}
