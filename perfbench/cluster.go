package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// cluster_replicated sizes.
const (
	clNodes    = 3
	clReplicas = 2
	clCells    = 64
	clCellSeed = 3
	clRate     = 2.0 // uploads per second
	// clLogCap is the primary replication log's default cap (tuples); the
	// preload runs until every primary's CO2 log is past it.
	clLogCap      = 1 << 17
	clMaxDays     = 16.0
	clSmokeLogCap = 4000
	// clCheckAnswers bounds the answers compared across entry node,
	// owner and replica.
	clCheckAnswers = 300
)

func clusterInfo(days float64, tuples int) workloadInfo {
	return workloadInfo{
		Name: "cluster_replicated",
		Why:  "three in-memory nodes with R=2 over loopback TCP: router hop, proto framing, wire codec, replication log past its cap, mirror apply and rebuild",
		Data: fmt.Sprintf("%d buses, %.1f days (%d tuples) preloaded through node 0 until every primary's CO2 replication log is past its %d-tuple cap",
			fleetSize, days, tuples, clLogCap),
		UploadRate: clRate,
		Mix: fmt.Sprintf("uploader open loop: %d-tuple POST /v1/ingest to node 0 at %.0f/s, routed and replicated from there; "+
			"query client HTTP closed loop on node 0 over the preloaded span, within 100 m of the buses' positions: 90%% point, 9%% route, 1%% heatmap",
			uploadTuples, clRate),
	}
}

// member is one cluster node assembled the way repro.Open assembles a
// clustered platform: engine, routing node, HTTP API, wire server.
type member struct {
	engine *server.Engine
	node   *cluster.Node
	api    *server.API
	srv    *proto.Server
}

// clusterSet is the running three-node cluster.
type clusterSet struct {
	ring    *cluster.Ring
	members []*member
	tr      *tracer

	mirMu   sync.Mutex
	mirrors []*server.Engine

	// counts of node 0's forwarded frames by inner type, while tracing
	fwdQuery, fwdIngest atomic.Int64
}

// newCluster builds the cluster. With a tracer, timing decorators wrap
// each node's Local handler, peer transports, mirror handlers and wire
// handler.
func newCluster(tr *tracer) (*clusterSet, error) {
	cs := &clusterSet{tr: tr}
	lns := make([]net.Listener, clNodes)
	addrs := make([]string, clNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// The facade's default region. With its default 16 cells (seed 1) node
	// 1 would own about 4% of the fleet's tuples and no preload of a few
	// days would fill its replication log, so the cluster uses 64 cells
	// placed with seed 3: every node owns 26-39%.
	region := geo.Rect{Min: geo.Point{X: -2500, Y: -1500}, Max: geo.Point{X: 5000, Y: 4000}}
	cells, err := cluster.Cells(region, clCells, clCellSeed)
	if err != nil {
		return nil, err
	}
	if cs.ring, err = cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: clReplicas}); err != nil {
		return nil, err
	}
	for i := 0; i < clNodes; i++ {
		st, err := store.Open(store.Config{WindowLength: windowSeconds})
		if err != nil {
			return nil, err
		}
		eng, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{repro.CO2: st}, core.Config{Pollutant: repro.CO2}, server.Options{})
		if err != nil {
			return nil, err
		}
		self := i
		dial := func(addr string) (cluster.Transport, error) {
			c, err := proto.Dial(addr, proto.ServerConfig{})
			if err != nil || tr == nil {
				return c, err
			}
			return &timedTransport{t: c, tr: tr, cs: cs, from: self}, nil
		}
		streams := func(addr string, req wire.Message) (cluster.PushStream, error) {
			return proto.DialStream(addr, proto.ServerConfig{}, req)
		}
		var local cluster.Handler = eng
		if tr != nil {
			local = &timedHandler{h: eng, tr: tr, name: "cluster.local"}
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring:        cs.ring,
			Self:        i,
			Local:       local,
			Transports:  cluster.LazyTransports(cs.ring, i, dial),
			Dial:        dial,
			Streams:     streams,
			Default:     repro.CO2,
			Pollutants:  []tuple.Pollutant{repro.CO2},
			Replication: cluster.ReplicationConfig{NewMirror: cs.newMirror},
		})
		if err != nil {
			return nil, err
		}
		var h proto.Handler = node
		if tr != nil {
			h = &timedHandler{h: node, tr: tr, name: "cluster.handle"}
		}
		m := &member{engine: eng, node: node, api: server.NewClusterAPI(eng, node)}
		m.srv = proto.Serve(lns[i], h, proto.ServerConfig{})
		cs.members = append(cs.members, m)
	}
	return cs, nil
}

// newMirror builds a replica mirror the way the facade's mirror factory
// does: an in-memory engine with the primary's configuration.
func (cs *clusterSet) newMirror() cluster.Handler {
	st, err := store.Open(store.Config{WindowLength: windowSeconds})
	if err != nil {
		return errHandler{err}
	}
	eng, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{repro.CO2: st}, core.Config{Pollutant: repro.CO2}, server.Options{})
	if err != nil {
		st.Close()
		return errHandler{err}
	}
	cs.mirMu.Lock()
	cs.mirrors = append(cs.mirrors, eng)
	cs.mirMu.Unlock()
	if cs.tr != nil {
		return &timedHandler{h: eng, tr: cs.tr, name: "cluster.mirror", salt: replSalt}
	}
	return eng
}

// replSalt separates the request keys of replication frames from those
// of the uploads they carry.
const replSalt = 0x5bd1e9955bd1e995

type errHandler struct{ err error }

func (e errHandler) HandleMessage(wire.Message) wire.Message {
	return wire.ErrorResponse{Msg: "replica: mirror engine: " + e.err.Error()}
}

func (cs *clusterSet) Close() {
	for _, m := range cs.members {
		m.srv.Close()
	}
	for _, m := range cs.members {
		m.node.Close()
		m.engine.Close()
	}
}

// timedTransport records a keyed span per exchange, so the peer's
// handler span attaches below it, and counts node 0's forwarded frames.
type timedTransport struct {
	t    cluster.Transport
	tr   *tracer
	cs   *clusterSet
	from int
}

func (d *timedTransport) Exchange(req wire.Message) (wire.Message, error) {
	tr := d.tr.on()
	if tr == nil {
		return d.t.Exchange(req)
	}
	key := msgKey(req)
	if _, ok := req.(wire.ReplicaIngest); ok {
		key ^= replSalt
	}
	if f, ok := req.(wire.Forwarded); ok && d.from == 0 {
		switch f.Inner.(type) {
		case wire.QueryRequest:
			d.cs.fwdQuery.Add(1)
		case wire.IngestRequest:
			d.cs.fwdIngest.Add(1)
		}
	}
	a := tr.childKeyed("cluster.transport."+typeName(unwrap(req)), key)
	defer a.end()
	return d.t.Exchange(req)
}

func (d *timedTransport) Close() error {
	if c, ok := d.t.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// waitQuiet waits until every engine's and mirror's scheduler is idle
// and replication counters stop moving.
func (cs *clusterSet) waitQuiet() {
	snap := func() (s [2]int64) {
		for _, m := range cs.members {
			if rs, ok := m.node.ReplicationStats(); ok {
				s[0] += rs.Streamed
				s[1] += rs.Applied
			}
		}
		return s
	}
	last := snap()
	for i := 0; i < 200; i++ {
		for _, m := range cs.members {
			m.engine.Scheduler().Wait()
		}
		cs.mirMu.Lock()
		mirrors := append([]*server.Engine(nil), cs.mirrors...)
		cs.mirMu.Unlock()
		for _, e := range mirrors {
			e.Scheduler().Wait()
		}
		time.Sleep(50 * time.Millisecond)
		cur := snap()
		if cur == last {
			return
		}
		last = cur
	}
}

func (cs *clusterSet) mirrorBuilds() int64 {
	cs.mirMu.Lock()
	defer cs.mirMu.Unlock()
	var n int64
	for _, e := range cs.mirrors {
		n += e.SchedulerStats().Built
	}
	return n
}

func (cs *clusterSet) replStats() (s cluster.ReplicationStats) {
	for _, m := range cs.members {
		if rs, ok := m.node.ReplicationStats(); ok {
			s.StreamDrops += rs.StreamDrops
			s.GapNaks += rs.GapNaks
			s.Catchups += rs.Catchups
		}
	}
	return s
}

// preloadEnd returns the end (exclusive) of the shortest window prefix
// of data after which every node's owned share is past logCap tuples.
func preloadEnd(ring *cluster.Ring, data tuple.Batch, logCap int) (int, error) {
	owned := make([]int, ring.Nodes())
	for i, r := range data {
		owned[ring.Owner(repro.CO2, geo.Point{X: r.X, Y: r.Y})]++
		last := i+1 == len(data) || tuple.WindowIndex(data[i+1].T, windowSeconds) != tuple.WindowIndex(r.T, windowSeconds)
		if !last {
			continue
		}
		past := true
		for _, n := range owned {
			past = past && n > logCap+logCap/10
		}
		if past {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("cluster preload: %d tuples do not put every primary past %d (owned %v)", len(data), logCap, owned)
}

type clLoad struct {
	p   params
	cs  *clusterSet
	tr  *tracer
	up  *uploader
	end float64 // stream time the preload covers

	spots   []geo.Point // query positions are drawn near these
	errs    errCount
	ackedMu sync.Mutex
	acked   tuple.Batch
	points  []pointAnswer

	reissued      int
	tracedUploads int
	codecQ        []float64
	codecI        []float64
	upBytes       []float64
	fwdUpload     int64
}

func runClusterReplicated(p params) (*report, error) {
	logCap, reps := clLogCap, setupReps
	if p.smoke {
		logCap, reps = clSmokeLogCap, 1
	}
	rep := newReport()
	rep.env = environment(p.seed, "", "in-memory stores (no flush)")
	l := &clLoad{p: p}
	if p.trace {
		l.tr = newTracer()
	}
	var setups []float64
	var data tuple.Batch
	var split int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		cs, err := newCluster(l.tr)
		if err != nil {
			return nil, err
		}
		if data, err = fleetData(p.seed, clMaxDays*day); err != nil {
			cs.Close()
			return nil, err
		}
		if split, err = preloadEnd(cs.ring, data, logCap); err != nil {
			cs.Close()
			return nil, err
		}
		ctx := context.Background()
		for _, w := range chunksByWindow(data[:split]) {
			if err := cs.members[0].node.Ingest(ctx, repro.CO2, w); err != nil {
				cs.Close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		cs.waitQuiet()
		setups = append(setups, since(t0))
		p.setupProbe.point()
		if i < reps-1 {
			cs.Close()
		} else {
			l.cs = cs
		}
	}
	defer l.cs.Close()
	rep.e2e["setup_s"] = median(setups)
	l.end = data[split-1].T
	rep.workload = clusterInfo(l.end/day, split)
	l.acked = append(tuple.Batch(nil), data[:split]...)
	spots := rand.New(rand.NewSource(p.seed*17 + 2))
	for i := 0; i < 4096; i++ {
		r := data[spots.Intn(split)]
		l.spots = append(l.spots, geo.Point{X: r.X, Y: r.Y})
	}
	need := int(clRate*p.seconds*1.5) + 10
	uploads := chunks(data[split:], uploadTuples)
	if len(uploads) > need {
		uploads = uploads[:need]
	}
	return rep, l.run(rep, uploads)
}

// chunksByWindow splits time-sorted data at window boundaries.
func chunksByWindow(b tuple.Batch) []tuple.Batch {
	var out []tuple.Batch
	start := 0
	for i := 1; i <= len(b); i++ {
		if i == len(b) || tuple.WindowIndex(b[i].T, windowSeconds) != tuple.WindowIndex(b[start].T, windowSeconds) {
			out = append(out, b[start:i:i])
			start = i
		}
	}
	return out
}

func (l *clLoad) run(rep *report, uploads []tuple.Batch) error {
	ctx := context.Background()
	entry := l.cs.members[0]
	var handler http.Handler = entry.api
	if l.tr != nil {
		handler = timedHTTP{h: entry.api, tr: l.tr}
	}
	hs, err := serveHTTP(handler)
	if err != nil {
		return err
	}
	defer hs.Close()
	upc, qc := newHTTPClient(hs.base), newHTTPClient(hs.base)
	defer upc.Close()
	defer qc.Close()

	l.up = &uploader{rate: clRate, uploads: uploads}
	l.up.send = upc.counted(&l.errs)
	l.up.onAck = func(i int, _ time.Time) {
		b := uploads[i]
		l.ackedMu.Lock()
		l.acked = append(l.acked, b...)
		l.ackedMu.Unlock()
		if l.tr.on() != nil {
			l.tracedUploads++
			req := wire.IngestRequest{Pollutant: repro.CO2, Tuples: b}
			l.codecI = append(l.codecI, codecUs(req)+codecUs(wire.IngestResponse{Ingested: uint32(len(b))}))
			if enc, err := wire.Binary.Encode(req); err == nil {
				l.upBytes = append(l.upBytes, float64(len(enc)))
			}
		}
	}
	mirror0 := l.cs.mirrorBuilds()
	repl0 := l.cs.replStats()
	mix := l.httpMix(ctx, qc)
	st := measure(rep, l.tr != nil, time.Duration(l.p.seconds*float64(time.Second)),
		func(d time.Duration) *phaseStats { return writePhase(l.up, mix, l.p.loadProbe, l.cs.waitQuiet, d) })
	st.report(rep)
	l.up.report(rep)
	l.errs.report(rep)
	rep.e2e["heap_live_mb"] = heapLiveMB()

	l.cs.waitQuiet()
	l.check(ctx, rep)
	if l.tr != nil {
		s := l.tr.summarize()
		m := rep.layer
		m["cluster.router.query_self_us"] = s["cluster.node.query"].selfUs
		m["cluster.router.scatter_us"] = s["cluster.node.heatmap"].meanUs
		m["cluster.router.forwards_per_query"] = float64(l.cs.fwdQuery.Load()) / float64(max(st.point.count()+l.reissued, 1))
		m["cluster.router.forwards_per_upload"] = float64(l.cs.fwdIngest.Load()) / float64(max(l.tracedUploads, 1))
		m["cluster.repl.primary_self_us"] = s["cluster.handle.ingest"].selfUs
		m["cluster.repl.mirror_apply_us"] = s["cluster.mirror.ingest"].meanUs
		var n, sum float64
		for name, ss := range s {
			if len(name) > len("cluster.transport.") && name[:len("cluster.transport.")] == "cluster.transport." {
				n += float64(ss.n)
				sum += ss.selfUs * float64(ss.n)
			}
		}
		m["proto.exchange_self_us"] = sum / n
		m["wire.codec_us.query"] = mean(l.codecQ)
		m["wire.codec_us.ingest"] = mean(l.codecI)
		m["wire.bytes_per_upload"] = mean(l.upBytes)
		rs := l.cs.replStats()
		m["cluster.repl.stream_drops"] = float64(rs.StreamDrops - repl0.StreamDrops)
		m["cluster.repl.gap_naks"] = float64(rs.GapNaks - repl0.GapNaks)
		m["cluster.repl.catchups"] = float64(rs.Catchups - repl0.Catchups)
		m["core.mirror_builds_per_upload"] = float64(l.cs.mirrorBuilds()-mirror0) / float64(max(len(l.up.acked), 1))
		return writeTrace(l.tr, l.p, rep)
	}
	return nil
}

// httpMix is the query client on node 0: the shared HTTP mix over the
// preloaded span, whose windows the uploads do not touch.
func (l *clLoad) httpMix(ctx context.Context, qc *httpClient) *httpMix {
	rng := rand.New(rand.NewSource(l.p.seed*17 + 1))
	entry := l.cs.members[0].node
	return &httpMix{
		hc:   qc,
		rng:  rng,
		errs: &l.errs,
		times: func(rng *rand.Rand) (float64, float64) {
			u := rng.Float64()
			return u * l.end, u * (l.end - routePoints*30)
		},
		// Phones query where the buses report: a preloaded position,
		// moved by up to 100 m. About two thirds of the queries then
		// land on shards node 0 does not own.
		where: func(rng *rand.Rand) (float64, float64) {
			s := l.spots[rng.Intn(len(l.spots))]
			return s.X + 200*(rng.Float64()-0.5), s.Y + 200*(rng.Float64()-0.5)
		},
		onPoint: func(i int, req repro.Request, v float64) {
			if len(l.points) < clCheckAnswers {
				l.points = append(l.points, pointAnswer{req, v})
			}
			tr := l.tr.on()
			if tr == nil || i%sampleEvery != 0 {
				return
			}
			key := reqKey(req.T, req.X, req.Y)
			a := tr.begin("cluster.node.query", 0, key, true)
			entry.Query(ctx, req)
			a.end()
			l.reissued++
			q := wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: repro.CO2}
			l.codecQ = append(l.codecQ, codecUs(q)+codecUs(wire.QueryResponse{Value: v}))
		},
		onHeat: func(_ int, t float64, _ *heatmap.Grid) {
			tr := l.tr.on()
			if tr == nil {
				return
			}
			a := tr.begin("cluster.node.heatmap", 0, reqKey(t, -2, -2), true)
			entry.Heatmap(ctx, repro.CO2, t, heatCells, heatCells)
			a.end()
		},
	}
}

// check compares sampled answers across the entry node, the owner and
// the replica, and the acked tuples with the tuples the owners hold.
func (l *clLoad) check(ctx context.Context, rep *report) {
	ring := l.cs.ring
	pts := l.points
	corrupt(l.p, "cluster_replica", func() { pts[0].got++ })
	for i, pa := range pts {
		req := pa.req
		msg := wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: repro.CO2}
		reps := ring.ReplicasFor(cluster.ShardKey{Pollutant: repro.CO2, Cell: ring.CellOf(geo.Point{X: req.X, Y: req.Y})})
		entry, err := l.cs.members[0].node.Query(ctx, req)
		if err != nil {
			rep.fail("cluster answer %d at the entry node: %v", i, err)
			return
		}
		owner, err := l.cs.members[reps[0]].engine.Query(ctx, req)
		if err != nil {
			rep.fail("cluster answer %d at owner %d: %v", i, reps[0], err)
			return
		}
		replica := l.cs.members[reps[1]].node.HandleMessage(wire.ReplicaRead{Origin: uint16(reps[0]), Inner: msg})
		for _, c := range []struct {
			what string
			got  wire.Message
		}{
			{"HTTP answer", wire.QueryResponse{Value: pa.got}},
			{"entry node", wire.QueryResponse{Value: entry}},
			{fmt.Sprintf("replica %d", reps[1]), replica},
		} {
			if err := checkMessage(fmt.Sprintf("cluster answer %d, %s vs owner %d", i, c.what, reps[0]), c.got, wire.QueryResponse{Value: owner}); err != nil {
				rep.fail("%v", err)
				return
			}
		}
	}
	want := make([]tuple.Batch, len(l.cs.members))
	for _, r := range l.acked {
		o := ring.Owner(repro.CO2, geo.Point{X: r.X, Y: r.Y})
		want[o] = append(want[o], r)
	}
	corrupt(l.p, "cluster_owner", func() { want[0] = want[0][1:] })
	for i, m := range l.cs.members {
		var held tuple.Batch
		for _, c := range m.engine.Store().WindowIndexes() {
			held = append(held, m.engine.Store().Window(c)...)
		}
		if err := checkTuples(fmt.Sprintf("tuples held by owner %d", i), held, want[i]); err != nil {
			rep.fail("%v", err)
			return
		}
	}
}
