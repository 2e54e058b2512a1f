package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/heatmap"
	"repro/internal/store"
	"repro/internal/tuple"
)

// ingest_live sizes.
const (
	ilPreloadDays = 4.0 // 96 windows, past the retention bound
	ilRetain      = 72
	ilRate        = 25.0 // uploads per second
	ilCheckpoint  = 2 * time.Second
	ilLateShare   = 0.10
	ilLateWindows = 3
	ilSubs        = 4
	ilRecentHours = 12.0
	// ilSetupReps is larger than setupReps: one set-up takes about a
	// second, and its fsyncs make single set-ups vary by half.
	ilSetupReps = 5

	ilSmokePreloadDays = 0.5
	ilSmokeRetain      = 8
)

func ingestLiveInfo(days float64, retain int) workloadInfo {
	return workloadInfo{
		Name: "ingest_live",
		Why:  "writes beside reads on one durable node: pipeline, fsynced store append, invalidation, cover rebuilds and subscription pushes share the CPU with queries",
		Data: fmt.Sprintf("%d buses, %.1f days preloaded durably (Retain %d windows, columnar, checkpoint every %v), then the fleet replayed forward",
			fleetSize, days, retain, ilCheckpoint),
		UploadRate: ilRate,
		Mix: fmt.Sprintf("uploader open loop: %d-tuple POST /v1/ingest at %.0f/s, %.0f%% late by 1-%d windows; "+
			"query client HTTP closed loop on the newest %.0f hours beyond the late uploads' reach: 90%% point, 9%% route, 1%% heatmap; "+
			"%d in-process subscriptions of %d points re-opened on the newest window",
			uploadTuples, ilRate, ilLateShare*100, ilLateWindows, ilRecentHours, ilSubs, routePoints),
	}
}

// lateOrder returns the delivery order of uploads: about ilLateShare of
// them are held back by 1 to ilLateWindows windows' worth of uploads.
func lateOrder(rng *rand.Rand, n int) []int {
	perWindow := tuplesPerWindow / uploadTuples
	key := make([]int, n)
	order := make([]int, n)
	for i := range key {
		key[i], order[i] = i, i
		if rng.Float64() < ilLateShare {
			key[i] += (1 + rng.Intn(ilLateWindows)) * perWindow
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	return order
}

// liveSub is one subscription and what its receiver has seen.
type liveSub struct {
	h      repro.Subscription
	window int
	pts    []repro.Request
	// pending is the due time (UnixNano) of the earliest upload into the
	// window since the last push, 0 when none.
	pending atomic.Int64

	mu     sync.Mutex
	values []float64
	errs   []string
	done   chan struct{}
}

// receive applies the subscription's events to its value vector and
// times each push after an upload into its window.
func (s *liveSub) receive(push *samples, errs *errCount) {
	defer close(s.done)
	first := true
	for ev := range s.h.Events() {
		now := time.Now()
		if ev.Err != "" {
			errs.fail(fmt.Errorf("subscription: %s", ev.Err))
		}
		s.mu.Lock()
		if ev.Resync {
			for i := range s.values {
				s.values[i], s.errs[i] = math.NaN(), "missing from resync"
			}
		}
		for _, pv := range ev.Points {
			s.values[pv.Index], s.errs[pv.Index] = pv.Value, pv.Err
		}
		s.mu.Unlock()
		if first {
			first = false
			continue
		}
		if due := s.pending.Swap(0); due != 0 {
			push.add(now.Sub(time.Unix(0, due)))
		}
	}
}

type ilLoad struct {
	p   params
	n   node
	tr  *tracer
	dir string

	uploads []tuple.Batch
	up      *uploader
	head    atomic.Uint64 // float64 bits: newest stream time acked
	headWin atomic.Int64

	subsMu sync.Mutex
	subs   []*liveSub
	push   samples
	errs   errCount

	ackedMu sync.Mutex
	acked   tuple.Batch // preload + acked uploads + re-issued uploads
	retain  int

	// traced-run state
	reissue   chan tuple.Batch
	twinFeed  chan tuple.Batch
	twinDone  chan struct{}
	twin      *store.Store
	twinDir   string
	twinN     int
	hits, hq  int
	buildMs   []float64
	lastBuild time.Time
	queueMax  atomic.Int64
}

func runIngestLive(p params) (*report, error) {
	days, retain, reps := ilPreloadDays, ilRetain, ilSetupReps
	if p.smoke {
		days, retain, reps = ilSmokePreloadDays, ilSmokeRetain, 1
	}
	rep := newReport()
	rep.workload = ingestLiveInfo(days, retain)
	dataDir := filepath.Join(p.dir, "ingest_live")
	cfg := repro.Config{
		WindowSeconds: windowSeconds,
		Dir:           dataDir,
		Retain:        retain,
		Checkpoint:    repro.CheckpointConfig{Interval: ilCheckpoint},
		Columnar:      repro.ColumnarConfig{Enabled: true},
	}
	rep.env = environment(p.seed, dataDir, "SyncEveryBatch (zero-value Config.Sync)")
	l := &ilLoad{p: p, dir: dataDir, retain: retain}
	if p.trace {
		l.tr = newTracer()
	}

	// Enough stream time for every upload the run can send, plus the
	// late tail.
	need := int(ilRate*p.seconds*1.5) + 400
	horizon := days*day + math.Ceil(float64(need*uploadTuples)/tuplesPerWindow+ilLateWindows+1)*windowSeconds
	var setups []float64
	var data tuple.Batch
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		os.RemoveAll(dataDir)
		var err error
		if data, err = fleetData(p.seed, horizon); err != nil {
			return nil, err
		}
		if l.n, err = openNode(cfg, l.tr); err != nil {
			return nil, err
		}
		ctx := context.Background()
		wins := byWindow(data)
		for c := 0; c < int(days*24); c++ {
			if err := l.n.Ingest(ctx, repro.CO2, wins[c]); err != nil {
				l.n.Close()
				return nil, err
			}
		}
		l.n.WaitMaintenance()
		setups = append(setups, since(t0))
		p.setupProbe.point()
		if i < reps-1 {
			l.n.Close()
		}
	}
	rep.e2e["setup_s"] = median(setups)
	split := sort.Search(len(data), func(i int) bool { return data[i].T >= days*day })
	l.acked = append(tuple.Batch(nil), data[:split]...)
	all := chunks(data[split:], uploadTuples)
	rng := rand.New(rand.NewSource(p.seed*11 + 3))
	for _, i := range lateOrder(rng, len(all)) {
		l.uploads = append(l.uploads, all[i])
	}
	l.setHead(days * day)
	closed := false
	defer func() {
		if !closed {
			l.n.Close()
		}
	}()
	return rep, l.run(rep, &closed)
}

func (l *ilLoad) setHead(t float64) {
	for {
		old := l.head.Load()
		if math.Float64frombits(old) >= t || l.head.CompareAndSwap(old, math.Float64bits(t)) {
			break
		}
	}
	l.headWin.Store(int64(tuple.WindowIndex(math.Float64frombits(l.head.Load()), windowSeconds)))
}

func (l *ilLoad) headTime() float64 { return math.Float64frombits(l.head.Load()) }

func (l *ilLoad) run(rep *report, closed *bool) error {
	ctx := context.Background()
	h := l.n.Handler()
	if l.tr != nil {
		h = timedHTTP{h: h, tr: l.tr}
	}
	hs, err := serveHTTP(h)
	if err != nil {
		return err
	}
	defer hs.Close()
	upc, qc := newHTTPClient(hs.base), newHTTPClient(hs.base)
	defer upc.Close()
	defer qc.Close()

	l.up = &uploader{rate: ilRate, uploads: l.uploads}
	l.up.send = upc.counted(&l.errs)
	l.up.onSend = l.markPending
	l.up.onAck = func(i int, _ time.Time) {
		b := l.uploads[i]
		l.ackedMu.Lock()
		l.acked = append(l.acked, b...)
		l.ackedMu.Unlock()
		l.setHead(b[len(b)-1].T)
		if l.twinFeed != nil {
			select {
			case l.twinFeed <- b:
			default:
			}
		}
		if l.reissue != nil && i%8 == 0 {
			select {
			case l.reissue <- b:
			default:
			}
		}
	}
	if err := l.openSubs(ctx); err != nil {
		return err
	}
	if l.tr != nil {
		if err := l.startTwin(); err != nil {
			return err
		}
	}

	ing0, sch0, sub0, ck0 := l.n.IngestStats(), l.n.MaintenanceStats(), l.n.SubscriptionStats(), l.n.CheckpointStats()
	var dur0 store.DurabilityStats
	if a, ok := l.n.(*assembled); ok {
		dur0 = a.st.DurabilityStats()
	}
	stopMon := l.monitor()
	mix := l.httpMix(ctx, qc)
	st := measure(rep, l.tr != nil, time.Duration(l.p.seconds*float64(time.Second)),
		func(d time.Duration) *phaseStats { return writePhase(l.up, mix, l.p.loadProbe, l.n.WaitMaintenance, d) })
	stopMon()
	st.report(rep)
	l.up.report(rep)
	rep.extraf("push_p50_ms", l.push.quantile(0.50), "ms")
	rep.extraf("push_p95_ms", l.push.quantile(0.95), "ms")
	rep.extraf("samples.push", float64(l.push.count()), "count")

	// Let background work settle, then check the subscriptions.
	l.n.WaitMaintenance()
	l.settleSubs()
	l.checkSubs(ctx, rep)
	rep.e2e["heap_live_mb"] = heapLiveMB()

	if l.tr != nil {
		l.stopTwin()
		a := l.n.(*assembled)
		l.layers(rep, ing0, sch0, sub0, ck0, dur0, a)
		t0 := time.Now()
		if err := l.n.Checkpoint(); err != nil {
			return err
		}
		rep.layer["store.checkpoint_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	l.closeSubs()
	l.errs.report(rep)
	*closed = true
	if err := l.n.Close(); err != nil {
		return err
	}
	if err := l.checkRecovery(); err != nil {
		rep.fail("%v", err)
	}
	if l.tr != nil {
		return writeTrace(l.tr, l.p, rep)
	}
	return nil
}

// httpMix is the query client: the shared HTTP mix over the newest
// ilRecentHours of stream time.
func (l *ilLoad) httpMix(ctx context.Context, qc *httpClient) *httpMix {
	rng := rand.New(rand.NewSource(l.p.seed*11 + 5))
	// Smoke-sized runs retain too few windows for the full span.
	recent := min(ilRecentHours, float64(l.retain-ilLateWindows-3))
	return &httpMix{
		hc:   qc,
		rng:  rng,
		errs: &l.errs,
		times: func(rng *rand.Rand) (float64, float64) {
			// The newest windows beyond the reach of late uploads: their
			// covers stay built, so the queries feel the writes through
			// the CPU, locks and disk they share, not through cover
			// misses (a cover miss costs a whole Ad-KMN build and would
			// make the tail a lottery).
			t := l.headTime() - (ilLateWindows+1+rng.Float64()*recent)*windowSeconds
			return t, t - routePoints*30
		},
		onPoint: func(i int, req repro.Request, _ float64) {
			l.traced(ctx, i, req)
		},
		onRoute: func(i int, pts []repro.Request, _ []float64) {
			if i%4 == 0 {
				reissueRoute(ctx, l.tr, l.n, pts)
			}
		},
		onHeat: func(_ int, t float64, _ *heatmap.Grid) { reissueHeatmap(ctx, l.tr, l.n, t) },
	}
}

// markPending records, before an upload is sent, that it is due into
// the windows of the subscriptions it touches.
func (l *ilLoad) markPending(i int, due time.Time) {
	b := l.uploads[i]
	lo, hi := tuple.WindowIndex(b[0].T, windowSeconds), tuple.WindowIndex(b[len(b)-1].T, windowSeconds)
	l.subsMu.Lock()
	defer l.subsMu.Unlock()
	for _, s := range l.subs {
		if s.window >= lo && s.window <= hi {
			s.pending.CompareAndSwap(0, due.UnixNano())
		}
	}
}

// openSubs opens ilSubs subscriptions on the newest window.
func (l *ilLoad) openSubs(ctx context.Context) error {
	c := int(l.headWin.Load())
	rng := rand.New(rand.NewSource(l.p.seed*13 + int64(c)))
	var fresh []*liveSub
	for k := 0; k < ilSubs; k++ {
		pts := make([]repro.Request, routePoints)
		for i := range pts {
			x, y := randPoint(rng)
			pts[i] = repro.Request{T: (float64(c) + rng.Float64()) * windowSeconds, X: x, Y: y, Pollutant: repro.CO2}
		}
		h, err := l.n.Subscribe(ctx, repro.CO2, pts)
		if err != nil {
			return fmt.Errorf("subscribe on window %d: %w", c, err)
		}
		s := &liveSub{h: h, window: c, pts: pts, values: make([]float64, len(pts)), errs: make([]string, len(pts)), done: make(chan struct{})}
		go s.receive(&l.push, &l.errs)
		fresh = append(fresh, s)
	}
	l.subsMu.Lock()
	old := l.subs
	l.subs = fresh
	l.subsMu.Unlock()
	for _, s := range old {
		s.h.Close()
		<-s.done
	}
	return nil
}

func (l *ilLoad) closeSubs() {
	l.subsMu.Lock()
	old := l.subs
	l.subs = nil
	l.subsMu.Unlock()
	for _, s := range old {
		s.h.Close()
		<-s.done
	}
}

// monitor re-opens the subscriptions when the stream enters a new
// window and, in traced runs, tracks the scheduler's queue. It returns
// a function that stops it.
func (l *ilLoad) monitor() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		win := l.headWin.Load()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if w := l.headWin.Load(); w != win {
				win = w
				if err := l.openSubs(context.Background()); err != nil {
					l.errs.fail(err)
				}
			}
			if l.tr != nil {
				if q := int64(l.n.MaintenanceStats().QueueLen); q > l.queueMax.Load() {
					l.queueMax.Store(q)
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// settleSubs waits until the subscription registry stops pushing.
func (l *ilLoad) settleSubs() {
	last, quiet := l.n.SubscriptionStats(), 0
	for i := 0; i < 100 && quiet < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		cur := l.n.SubscriptionStats()
		if cur.Pushes == last.Pushes && cur.ReEvals == last.ReEvals {
			quiet++
		} else {
			quiet = 0
		}
		last = cur
	}
}

// checkSubs compares each subscription's last pushed vector with a
// fresh QueryBatch of its points. A re-evaluation may still be in flight
// when the counters look quiet, so a mismatch is re-checked for up to
// two seconds; a push that never converges fails.
func (l *ilLoad) checkSubs(ctx context.Context, rep *report) {
	var err error
	for try := 0; try < 20; try++ {
		if err = l.subsMatch(ctx); err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	rep.fail("%v", err)
}

func (l *ilLoad) subsMatch(ctx context.Context) error {
	l.subsMu.Lock()
	defer l.subsMu.Unlock()
	for k, s := range l.subs {
		s.mu.Lock()
		got := append([]float64(nil), s.values...)
		errs := append([]string(nil), s.errs...)
		s.mu.Unlock()
		if k == 0 {
			corrupt(l.p, "push", func() { got[0]++ })
		}
		res, err := l.n.QueryBatch(ctx, s.pts)
		if err != nil {
			return fmt.Errorf("subscription %d: QueryBatch: %v", k, err)
		}
		want := make([]float64, len(res))
		for i, r := range res {
			if (r.Err != nil) != (errs[i] != "") {
				return fmt.Errorf("subscription %d point %d: pushed error %q, fresh error %v", k, i, errs[i], r.Err)
			}
			want[i] = r.Value
		}
		if err := checkValues(fmt.Sprintf("subscription %d last push", k), got, want); err != nil {
			return err
		}
	}
	return nil
}

// checkRecovery reopens the closed node's store and compares every
// retained window with the tuples that were acknowledged into it.
func (l *ilLoad) checkRecovery() error {
	st, err := store.Open(store.Config{
		WindowLength: windowSeconds,
		Retain:       l.retain,
		Dir:          filepath.Join(l.dir, repro.CO2.String()),
		Columnar:     repro.ColumnarConfig{Enabled: true},
	})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer st.Close()
	want := byWindow(l.acked)
	corrupt(l.p, "recovery", func() {
		c := int(l.headWin.Load())
		want[c] = want[c][1:]
	})
	top := -1
	for c := range want {
		top = max(top, c)
	}
	for c := top - l.retain + 1; c <= top; c++ {
		if err := checkTuples(fmt.Sprintf("recovered window %d", c), st.Window(c), want[c]); err != nil {
			return err
		}
	}
	return nil
}

// --- traced run ---------------------------------------------------------

// traced re-issues a sampled live point query at the layers below the
// edge, and in the same goroutine the sampled uploads at the engine.
func (l *ilLoad) traced(ctx context.Context, i int, req repro.Request) {
	tr := l.tr.on()
	a, ok := l.n.(*assembled)
	if tr == nil || !ok {
		return
	}
	if i%4 == 0 {
		// The hit ratio is sampled on the window being written, which
		// the subscriptions read; the query client's windows stay built.
		c := int(l.headWin.Load())
		for _, w := range a.engine.Maintainer().CachedWindows() {
			if w == c {
				l.hits++
				break
			}
		}
		l.hq++
	}
	if i%(4*sampleEvery) == 0 {
		reissuePoint(ctx, tr, l.n, req)
		l.subsMu.Lock()
		var pts []repro.Request
		if len(l.subs) > 0 {
			pts = l.subs[0].pts
		}
		l.subsMu.Unlock()
		if pts != nil {
			tr.timeSpan("subs.eval", 0, 0, func() { l.n.QueryBatch(ctx, pts) })
		}
	}
	if time.Since(l.lastBuild) > time.Second {
		l.lastBuild = time.Now()
		l.ackedMu.Lock()
		w := byWindow(l.acked[max(0, len(l.acked)-3*tuplesPerWindow):])[int(l.headWin.Load())-1]
		w = append(tuple.Batch(nil), w...)
		l.ackedMu.Unlock()
		if len(w) > 0 {
			t0 := time.Now()
			core.BuildCover(w, int(l.headWin.Load())-1, windowSeconds, core.Config{Pollutant: repro.CO2})
			l.buildMs = append(l.buildMs, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	select {
	case b := <-l.reissue:
		// The re-issued upload is applied again: its copies are acked
		// tuples too.
		a := tr.begin("server.engine.ingest", 0, tuplesKey(b), false)
		err := l.n.Ingest(ctx, repro.CO2, b)
		a.end()
		if err == nil {
			l.ackedMu.Lock()
			l.acked = append(l.acked, b...)
			l.ackedMu.Unlock()
		}
	default:
	}
}

// startTwin opens a twin store with the workload's store configuration
// and feeds it the run's acked uploads, timing each Store.Append.
func (l *ilLoad) startTwin() error {
	l.twinDir = filepath.Join(l.p.dir, "twin")
	st, err := store.Open(store.Config{WindowLength: windowSeconds, Retain: l.retain, Dir: l.twinDir})
	if err != nil {
		return err
	}
	l.twin = st
	l.reissue = make(chan tuple.Batch, 64)
	l.twinFeed = make(chan tuple.Batch, 1024)
	l.twinDone = make(chan struct{})
	go func() {
		defer close(l.twinDone)
		for b := range l.twinFeed {
			if !tracing.Load() {
				continue
			}
			a := l.tr.begin("store.append", 0, tuplesKey(b), false)
			l.twin.Append(b)
			a.end()
			l.twinN += len(b)
		}
	}()
	return nil
}

func (l *ilLoad) stopTwin() {
	feed := l.twinFeed
	l.twinFeed = nil
	close(feed)
	<-l.twinDone
	l.twin.Close()
}

func (l *ilLoad) layers(rep *report, ing0 repro.PipelineStats, sch0 repro.SchedulerStats, sub0 repro.SubscriptionStats, ck0 repro.CheckpointStats, dur0 store.DurabilityStats, a *assembled) {
	s := l.tr.summarize()
	m := rep.layer
	m["server.engine.query_us"] = s["server.engine.query"].meanUs
	m["server.http.point_self_us"] = s["server.http.point"].meanUs - s["server.engine.query"].meanUs
	m["server.engine.route_us"] = s["server.engine.route"].meanUs
	m["server.http.route_self_us"] = s["server.http.route"].meanUs - s["server.engine.route"].meanUs
	m["server.engine.heatmap_us"] = s["server.engine.heatmap"].meanUs
	m["server.engine.ingest_us"] = s["server.engine.ingest"].meanUs
	m["server.http.ingest_self_us"] = s["server.http.ingest"].meanUs - s["server.engine.ingest"].meanUs
	m["core.maintainer.cover_at_us"] = s["core.maintainer.cover_at"].meanUs
	m["core.cover.interpolate_us"] = s["core.cover.interpolate"].meanUs
	m["store.window_us"] = s["store.window"].meanUs
	m["heatmap.raster_us"] = s["heatmap.raster"].meanUs
	m["query.cover_over_naive_ratio"] = s["server.engine.query"].meanUs / s["query.naive"].meanUs
	m["subs.eval_us"] = s["subs.eval"].meanUs
	m["store.append_us"] = s["store.append"].meanUs
	m["core.maintainer.hit_ratio"] = float64(l.hits) / float64(max(l.hq, 1))
	m["core.build_ms"] = mean(l.buildMs)

	uploads := float64(max(len(l.up.acked), 1))
	sch := l.n.MaintenanceStats()
	m["core.scheduler.builds_per_upload"] = float64(sch.Built-sch0.Built) / uploads
	m["core.scheduler.skipped"] = float64(sch.Skipped - sch0.Skipped)
	m["core.scheduler.dropped"] = float64(sch.Dropped - sch0.Dropped)
	m["core.scheduler.queue_max"] = float64(l.queueMax.Load())
	ing := l.n.IngestStats()
	m["ingest.coalesce_ratio"] = float64(ing.Coalesced-ing0.Coalesced) / float64(max(ing.Submitted-ing0.Submitted, 1))
	m["ingest.rejected"] = float64(ing.Rejected - ing0.Rejected)
	sub := l.n.SubscriptionStats()
	avoided, matches := sub.Avoided-sub0.Avoided, sub.Matches-sub0.Matches
	m["subs.avoided_ratio"] = float64(avoided) / float64(max(avoided+matches, 1))
	m["subs.point_reevals_per_push"] = float64(sub.PointReEvals-sub0.PointReEvals) / float64(max(sub.Pushes-sub0.Pushes, 1))
	m["subs.resyncs"] = float64(sub.Resyncs - sub0.Resyncs)
	m["store.checkpoints"] = float64(l.n.CheckpointStats().Checkpoints - ck0.Checkpoints)
	dur := a.st.DurabilityStats()
	m["store.syncs_per_append"] = float64(dur.Syncs-dur0.Syncs) / float64(max(dur.Appends-dur0.Appends, 1))
	m["store.bytes_per_tuple"] = float64(dirBytes(l.twinDir)) / float64(max(l.twinN, 1))
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
