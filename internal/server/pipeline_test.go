package server

// Ingest-path tests, run under `go test -race`: after an ingest burst
// through the asynchronous pipeline, (1) a subsequent query finds its
// cover already built by the background scheduler — no synchronous
// Ad-KMN on the query path — and (2) the pipeline's coalescing is the
// group commit: concurrent uploads share one store append and so one
// fsync, asserted via the store's sync-counting hook (DurabilityStats).

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
)

// TestIngestBurstPrebuildsCoversAndGroupsSyncs checks a concurrent
// upload burst leaves every touched window's cover prebuilt, and that
// every store append paid exactly one fsync.
func TestIngestBurstPrebuildsCoversAndGroupsSyncs(t *testing.T) {
	const (
		windowLen = 100.0
		windows   = 4
		uploaders = 8
		uploads   = 4 // per uploader
	)
	st, err := store.Open(store.Config{WindowLength: windowLen, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	// The burst: concurrent small uploads across all windows.
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < uploads; i++ {
				c := (u*uploads + i) % windows
				b := seedBatch(tuple.CO2, c, windowLen, 25, int64(1000+u*100+i))
				if err := e.Ingest(ctx, tuple.CO2, b); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesce the background scheduler, then verify every touched window's
	// cover is already cached — built off the query path.
	e.Scheduler().Wait()
	mnt := e.Maintainer()
	cached := mnt.CachedWindows()
	sort.Ints(cached)
	if len(cached) != windows {
		t.Fatalf("CachedWindows = %v, want all %d touched windows prebuilt", cached, windows)
	}
	ss := e.SchedulerStats()
	if ss.Built == 0 {
		t.Fatalf("SchedulerStats = %+v, want background builds", ss)
	}

	// The query must be answered from the prebuilt cover: the exact
	// cached pointer, not a fresh synchronous build.
	before := mnt.Snapshot()
	for c := 0; c < windows; c++ {
		tm := (float64(c) + 0.5) * windowLen
		if _, err := e.Query(ctx, query.Request{T: tm, X: 500, Y: 500, Pollutant: tuple.CO2}); err != nil {
			t.Fatalf("query window %d: %v", c, err)
		}
		cv, err := mnt.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if cv != before[c] {
			t.Fatalf("window %d: query built a new cover instead of using the scheduler's", c)
		}
	}

	// Every-batch durability: one fsync per store append, and one store
	// append per pipeline sink call (coalesced uploads share both).
	ds := st.DurabilityStats()
	if ds.Appends == 0 || ds.Syncs != ds.Appends {
		t.Fatalf("DurabilityStats = %+v, want one sync per append", ds)
	}
	if ps := e.PipelineStats(); ps.Appends != ds.Appends || ps.Submitted != uploaders*uploads {
		t.Fatalf("PipelineStats = %+v, want %d submissions in %d appends", ps, uploaders*uploads, ds.Appends)
	}
}

// TestIngestGatedBurstSharesSyncs holds the CO2 ingest worker inside its
// sink while 16 uploads queue behind it, then releases it: the pipeline
// must fold the queued uploads into one append, so the whole burst costs
// at most two store appends and two fsyncs, and every upload is acked.
func TestIngestGatedBurstSharesSyncs(t *testing.T) {
	const (
		windowLen = 100.0
		uploads   = 16
	)
	st, err := store.Open(store.Config{WindowLength: windowLen, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := make(chan struct{})
	e.ingestTestGate = func(tuple.Pollutant) { <-release }

	ctx := context.Background()
	errs := make(chan error, uploads)
	for u := 0; u < uploads; u++ {
		u := u
		go func() {
			errs <- e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, u%4, windowLen, 5, int64(u)))
		}()
	}
	// Every upload is accepted (one in the gated sink, the rest queued)
	// before the worker is released.
	deadline := time.Now().Add(10 * time.Second)
	for e.PipelineStats().Queued < uploads {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never queued: %+v", e.PipelineStats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for u := 0; u < uploads; u++ {
		if err := <-errs; err != nil {
			t.Fatalf("upload not acked: %v", err)
		}
	}
	ds := st.DurabilityStats()
	if ds.Appends > 2 || ds.Syncs > 2 {
		t.Fatalf("DurabilityStats = %+v, want <= 2 appends and <= 2 syncs for %d uploads", ds, uploads)
	}
	if got, want := st.Len(), uploads*5; got != want {
		t.Fatalf("store holds %d tuples, want %d", got, want)
	}
}

// TestIngestSkipsOutOfRetentionInvalidation is the satellite fix: a
// batch whose tuples land behind the retention horizon (evicted by its
// own append) must not queue dead cover builds.
func TestIngestSkipsOutOfRetentionInvalidation(t *testing.T) {
	const windowLen = 100.0
	st, err := store.Open(store.Config{WindowLength: windowLen, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 12}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	// Fill recent windows 10 and 11 (the retained pair).
	for _, c := range []int{10, 11} {
		if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, c, windowLen, 30, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	e.Scheduler().Wait()
	base := e.SchedulerStats()

	// A straggler upload for long-dead window 1: the append evicts it
	// immediately (retention keeps the newest 2 of {1, 10, 11}), so no
	// invalidation — and no build — may be scheduled for it.
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, windowLen, 10, 99)); err != nil {
		t.Fatal(err)
	}
	e.Scheduler().Wait()
	got := e.SchedulerStats()
	if got.Scheduled != base.Scheduled {
		t.Fatalf("dead window queued a build: scheduled %d -> %d", base.Scheduled, got.Scheduled)
	}
	cached := e.Maintainer().CachedWindows()
	sort.Ints(cached)
	for _, c := range cached {
		if c == 1 {
			t.Fatalf("dead window 1 has a cover (cached %v)", cached)
		}
	}
}

// TestEngineIngestAfterClose checks the write path fails cleanly once
// the engine is closed, while reads keep working.
func TestEngineIngestAfterClose(t *testing.T) {
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 0, 100, 30, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, 100, 5, 2)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrEngineClosed", err)
	}
	if err := e.TryIngest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, 100, 5, 2)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("TryIngest after Close = %v, want ErrEngineClosed", err)
	}
	// Reads still answer from built state.
	if _, err := e.Query(ctx, query.Request{T: 50, X: 500, Y: 500, Pollutant: tuple.CO2}); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestEngineIngestValidatesBeforeQueueing checks a garbage upload is
// rejected at submit — it must not poison a coalesced append.
func TestEngineIngestValidatesBeforeQueueing(t *testing.T) {
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 14}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := tuple.Batch{{T: -5, X: 0, Y: 0, S: 400}}
	if err := e.Ingest(context.Background(), tuple.CO2, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if ps := e.PipelineStats(); ps.Submitted != 0 {
		t.Fatalf("invalid batch was queued: %+v", ps)
	}
}
