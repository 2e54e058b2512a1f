package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"

	"repro"
	"repro/internal/coverio"
	"repro/internal/heatmap"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// node is the surface of repro.Platform the single-node workloads drive.
// Untraced runs use *repro.Platform itself; traced runs use assembled,
// which builds the same engine from the same constructors so the
// layers below the facade can be timed.
type node interface {
	Handler() http.Handler
	ListenTCP(addr string) (io.Closer, net.Addr, error)
	Query(ctx context.Context, req repro.Request, opts ...repro.QueryOption) (float64, error)
	QueryBatch(ctx context.Context, reqs []repro.Request, opts ...repro.QueryOption) ([]repro.BatchResult, error)
	Heatmap(ctx context.Context, pol repro.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error)
	Cover(ctx context.Context, pol repro.Pollutant, t float64) (*repro.Cover, error)
	ModelResponse(ctx context.Context, pol repro.Pollutant, t float64) (repro.ModelResponse, error)
	Ingest(ctx context.Context, pol repro.Pollutant, readings []repro.Reading) error
	Subscribe(ctx context.Context, pol repro.Pollutant, pts []repro.Request) (repro.Subscription, error)
	Checkpoint() error
	Close() error
	WaitMaintenance()
	IngestStats() repro.PipelineStats
	MaintenanceStats() repro.SchedulerStats
	SubscriptionStats() repro.SubscriptionStats
	CheckpointStats() repro.CheckpointStats
	ColumnarStats() repro.ColumnarStats
}

// openNode opens a single-pollutant (CO2) node: the real platform when
// tr is nil, the assembled twin of it when tracing.
func openNode(cfg repro.Config, tr *tracer) (node, error) {
	cfg.Pollutants = []repro.Pollutant{repro.CO2}
	if tr == nil {
		return repro.Open(cfg)
	}
	return assemble(cfg, tr)
}

// assembled is a single CO2 node built the way repro.Open builds one
// (explicit pollutant list: per-pollutant store directory and
// ".CO2"-suffixed cover snapshot), exposing the engine, store and
// maintainer so traced runs can call each layer's entry point.
type assembled struct {
	engine    *server.Engine
	api       *server.API
	st        *store.Store
	snapshot  string
	ckOnClose bool
	tr        *tracer
}

func assemble(cfg repro.Config, tr *tracer) (*assembled, error) {
	dir := ""
	if cfg.Dir != "" {
		dir = filepath.Join(cfg.Dir, repro.CO2.String())
	}
	st, err := store.Open(store.Config{
		WindowLength: cfg.WindowSeconds,
		Retain:       cfg.Retain,
		Dir:          dir,
		Sync:         cfg.Sync,
		KeepSegments: cfg.Checkpoint.KeepSegments,
		Columnar:     cfg.Columnar,
	})
	if err != nil {
		return nil, err
	}
	adkmn := cfg.AdKMN
	adkmn.Pollutant = repro.CO2
	engine, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{repro.CO2: st}, adkmn, server.Options{
		Pipeline:   cfg.IngestQueue,
		Scheduler:  cfg.Maintenance,
		Checkpoint: cfg.Checkpoint,
		Subs:       cfg.Subscriptions,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	a := &assembled{engine: engine, api: server.NewAPI(engine), st: st, ckOnClose: cfg.Checkpoint.Interval > 0, tr: tr}
	if cfg.CoverSnapshot != "" {
		a.snapshot = cfg.CoverSnapshot + "." + repro.CO2.String()
		covers, err := coverio.Load(a.snapshot)
		if err != nil {
			engine.Close()
			st.Close()
			return nil, err
		}
		engine.Maintainer().Prime(covers)
	}
	engine.WarmPrime()
	return a, nil
}

func (a *assembled) Handler() http.Handler { return a.api }

// ListenTCP serves the wire protocol through a timing decorator around
// the engine handler.
func (a *assembled) ListenTCP(addr string) (io.Closer, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := proto.Serve(ln, &timedHandler{h: a.engine, tr: a.tr, name: "proto.server"}, proto.ServerConfig{})
	return srv, srv.Addr(), nil
}

func options(opts []repro.QueryOption) query.Options {
	var o query.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (a *assembled) Query(ctx context.Context, req repro.Request, opts ...repro.QueryOption) (float64, error) {
	return a.engine.QueryOpts(ctx, req, options(opts))
}

func (a *assembled) QueryBatch(ctx context.Context, reqs []repro.Request, opts ...repro.QueryOption) ([]repro.BatchResult, error) {
	return a.engine.QueryBatchOpts(ctx, reqs, options(opts))
}

func (a *assembled) Heatmap(ctx context.Context, pol repro.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	return a.engine.Heatmap(ctx, pol, t, cols, rows)
}

func (a *assembled) Cover(ctx context.Context, pol repro.Pollutant, t float64) (*repro.Cover, error) {
	return a.engine.CoverAt(ctx, pol, t)
}

func (a *assembled) ModelResponse(ctx context.Context, pol repro.Pollutant, t float64) (repro.ModelResponse, error) {
	cv, err := a.engine.CoverAt(ctx, pol, t)
	if err != nil {
		return repro.ModelResponse{}, err
	}
	return wire.ModelResponseFromCover(cv)
}

func (a *assembled) Ingest(ctx context.Context, pol repro.Pollutant, readings []repro.Reading) error {
	return a.engine.Ingest(ctx, pol, tuple.Batch(readings))
}

func (a *assembled) Subscribe(ctx context.Context, pol repro.Pollutant, pts []repro.Request) (repro.Subscription, error) {
	return a.engine.Subscribe(ctx, pol, pts)
}

func (a *assembled) saveCovers() error {
	if a.snapshot == "" {
		return nil
	}
	return coverio.Save(a.snapshot, a.engine.Maintainer().Snapshot())
}

func (a *assembled) Checkpoint() error {
	return errors.Join(a.engine.Checkpoint(), a.saveCovers())
}

func (a *assembled) Close() error {
	errs := []error{a.engine.Close()}
	if a.ckOnClose {
		errs = append(errs, a.engine.Checkpoint())
	}
	errs = append(errs, a.saveCovers(), a.st.Close())
	return errors.Join(errs...)
}

func (a *assembled) WaitMaintenance()                       { a.engine.Scheduler().Wait() }
func (a *assembled) IngestStats() repro.PipelineStats       { return a.engine.PipelineStats() }
func (a *assembled) MaintenanceStats() repro.SchedulerStats { return a.engine.SchedulerStats() }
func (a *assembled) SubscriptionStats() repro.SubscriptionStats {
	return a.engine.Subscriptions().Stats()
}
func (a *assembled) CheckpointStats() repro.CheckpointStats { return a.engine.CheckpointStats() }
func (a *assembled) ColumnarStats() repro.ColumnarStats     { return a.engine.ColumnarStats() }

// --- timing decorators ------------------------------------------------

// tracing switches the decorators on. Traced runs measure an untraced
// half first (decorators installed, switched off) to report the
// tracing overhead.
var tracing atomic.Bool

func (tr *tracer) on() *tracer {
	if tr == nil || !tracing.Load() {
		return nil
	}
	return tr
}

// msgHandler is the handler shape shared by proto.Handler and
// cluster.Handler.
type msgHandler interface {
	HandleMessage(req wire.Message) wire.Message
}

type ctxHandler interface {
	HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message
}

type ctxStreamer interface {
	HandleStreamCtx(ctx context.Context, req wire.Message) (wire.Message, func(emit func(wire.Message) error), func(), bool)
}

// timedHandler records a span around every message it forwards. The
// span is keyed, so calls the handler makes for the same request attach
// below it. It forwards HandleMessageCtx, HandleStreamCtx and Close
// when the wrapped value has them.
type timedHandler struct {
	h    msgHandler
	tr   *tracer
	name string
	salt uint64
}

// begin opens the handler's span, or returns nil with tracing off.
func (d *timedHandler) begin(req wire.Message) *active {
	tr := d.tr.on()
	if tr == nil {
		return nil
	}
	return tr.childKeyed(d.name+"."+typeName(unwrap(req)), msgKey(req)^d.salt)
}

func (d *timedHandler) HandleMessage(req wire.Message) wire.Message {
	a := d.begin(req)
	defer a.end()
	return d.h.HandleMessage(req)
}

func (d *timedHandler) HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message {
	ch, ok := d.h.(ctxHandler)
	if !ok {
		return d.HandleMessage(req)
	}
	a := d.begin(req)
	defer a.end()
	return ch.HandleMessageCtx(ctx, req)
}

func (d *timedHandler) HandleStreamCtx(ctx context.Context, req wire.Message) (wire.Message, func(emit func(wire.Message) error), func(), bool) {
	if s, ok := d.h.(ctxStreamer); ok {
		return s.HandleStreamCtx(ctx, req)
	}
	return nil, nil, nil, false
}

func (d *timedHandler) Close() error {
	if c, ok := d.h.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// unwrap returns the request inside a forwarding envelope.
func unwrap(m wire.Message) wire.Message {
	if f, ok := m.(wire.Forwarded); ok {
		return f.Inner
	}
	return m
}

// typeName names a request type in span names.
func typeName(m wire.Message) string {
	switch m.(type) {
	case wire.QueryRequest:
		return "query"
	case wire.BatchQueryRequest:
		return "batch"
	case wire.ModelRequest:
		return "model"
	case wire.HeatmapRequest:
		return "heatmap"
	case wire.IngestRequest:
		return "ingest"
	case wire.ReplicaIngest:
		return "replica_ingest"
	}
	return fmt.Sprintf("%T", m)
}

// timedHTTP records a root span per request, named by endpoint.
type timedHTTP struct {
	h  http.Handler
	tr *tracer
}

func (d timedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "server.http.other"
	switch r.URL.Path {
	case "/v1/query":
		name = "server.http.point"
	case "/v1/query/continuous":
		name = "server.http.route"
	case "/v1/heatmap":
		name = "server.http.heatmap"
	case "/v1/ingest":
		name = "server.http.ingest"
	}
	a := d.tr.on().begin(name, 0, 0, false)
	d.h.ServeHTTP(w, r)
	a.end()
}
