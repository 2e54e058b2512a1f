package bench

// Failover / hedged-read benchmark (PR 9, BENCH_9.json): a closed-loop
// 3-node replicated cluster in one process. Phase one kills a node
// under mixed load and requires ZERO failed queries and ZERO answer
// mismatches on the dead node's shards — the availability contract the
// replicas buy. Phase two injects a fixed delay in front of one
// primary and compares the sharded client's query latency with hedging
// off and on; the hedge probe racing the replica must pull p99 back
// down. The result is self-validating: the booleans it carries are the
// acceptance criteria.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// FailoverConfig parameterises the failover/hedging benchmark.
type FailoverConfig struct {
	// Nodes is the cluster size (fixed at 3: one victim, one replica
	// holder, one router-side survivor).
	Nodes int `json:"nodes"`
	// Replicas is the ring replication factor.
	Replicas int `json:"replicas"`
	// CellsPerSide is the shard grid resolution (CellsPerSide^2 cells).
	CellsPerSide int `json:"cells_per_side"`
	// Queries is the closed-loop query count per phase.
	Queries int `json:"queries"`
	// SlowPrimaryMS is the delay injected in front of the slow primary
	// during the hedging phase, in milliseconds.
	SlowPrimaryMS int `json:"slow_primary_ms"`
	// HedgeFloorMS bounds the hedge delay from below, in milliseconds.
	HedgeFloorMS int `json:"hedge_floor_ms"`
	// ConvergeTimeoutS bounds the wait for replica mirrors to reach
	// byte-equality with their primaries before measuring.
	ConvergeTimeoutS int `json:"converge_timeout_s"`
	// Seed drives the workload shuffle and the engines' clustering.
	Seed int64 `json:"seed"`
}

// DefaultFailoverConfig is the committed BENCH_9.json workload: small
// enough for a CI smoke run, large enough that every node's shards are
// exercised in both phases.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Nodes:            3,
		Replicas:         2,
		CellsPerSide:     8,
		Queries:          256,
		SlowPrimaryMS:    8,
		HedgeFloorMS:     1,
		ConvergeTimeoutS: 60,
		Seed:             1,
	}
}

// FailoverResult is the BENCH_9.json schema.
type FailoverResult struct {
	Config FailoverConfig `json:"config"`

	// Loaded is the tuple count ingested before the kill.
	Loaded int `json:"loaded_tuples"`
	// Victim is the node killed in the failover phase.
	Victim int `json:"victim_node"`

	// Failover phase: every query must succeed and every answer on the
	// victim's shards must be byte-equal to the answer its engine gave
	// before dying.
	QueriesAfterKill   int   `json:"queries_after_kill"`
	VictimShardQueries int   `json:"victim_shard_queries"`
	FailedAfterKill    int   `json:"failed_after_kill"`
	Mismatches         int   `json:"mismatches"`
	IngestsAfterKill   int   `json:"ingests_after_kill"`
	IngestFailures     int   `json:"ingest_failures"`
	ClientFailovers    int64 `json:"client_failovers"`

	// Hedging phase: closed-loop latency against a slow primary, hedging
	// off then on.
	UnhedgedP50Ms float64 `json:"unhedged_p50_ms"`
	UnhedgedP99Ms float64 `json:"unhedged_p99_ms"`
	HedgedP50Ms   float64 `json:"hedged_p50_ms"`
	HedgedP99Ms   float64 `json:"hedged_p99_ms"`
	HedgeProbes   int64   `json:"hedge_probes"`
	HedgeWins     int64   `json:"hedge_wins"`

	// Acceptance booleans (see Check): zero 502s on the dead node's
	// shards, byte-equal replica answers, and a hedged p99 no worse than
	// the unhedged one.
	ZeroErrorFailover bool `json:"zero_error_failover"`
	ByteEqualReplicas bool `json:"byte_equal_replicas"`
	HedgeP99Improved  bool `json:"hedged_p99_le_unhedged"`
}

// Check reports the first acceptance criterion the run misses: its
// three booleans, plus a run that actually read the dead node's shards
// and won a hedge race.
func (r FailoverResult) Check() error {
	switch {
	case !r.ZeroErrorFailover:
		return fmt.Errorf("failover was not error-free: %d/%d queries failed, %d ingest failures, %d failovers",
			r.FailedAfterKill, r.QueriesAfterKill, r.IngestFailures, r.ClientFailovers)
	case !r.ByteEqualReplicas:
		return fmt.Errorf("%d replica answers diverged from the dead owner's", r.Mismatches)
	case !r.HedgeP99Improved:
		return fmt.Errorf("hedging did not hold p99: hedged %.3fms vs unhedged %.3fms (%d wins)",
			r.HedgedP99Ms, r.UnhedgedP99Ms, r.HedgeWins)
	case r.VictimShardQueries <= 0 || r.HedgeWins <= 0:
		return fmt.Errorf("no victim-shard reads (%d) or hedge wins (%d)", r.VictimShardQueries, r.HedgeWins)
	}
	return nil
}

// RunFailover runs both phases on fresh clusters and returns the
// self-validated result.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	res := &FailoverResult{Config: cfg}
	if err := runFailoverKill(cfg, res); err != nil {
		return nil, fmt.Errorf("failover phase: %w", err)
	}
	if err := runFailoverHedge(cfg, res); err != nil {
		return nil, fmt.Errorf("hedging phase: %w", err)
	}
	res.ZeroErrorFailover = res.FailedAfterKill == 0 && res.IngestFailures == 0 &&
		res.VictimShardQueries > 0 && res.ClientFailovers > 0
	res.ByteEqualReplicas = res.Mismatches == 0
	res.HedgeP99Improved = res.HedgedP99Ms <= res.UnhedgedP99Ms && res.HedgeWins > 0
	return res, nil
}

// runFailoverKill is phase one: load, converge, record the owners'
// answers, kill a node, then drive a mixed read/write closed loop
// through the sharded client. Reads on the dead node's shards must all
// succeed byte-equal from its replica; writes (which never fail over)
// keep landing on the surviving owners.
func runFailoverKill(cfg FailoverConfig, res *FailoverResult) error {
	c, err := newSimCluster(cfg.Nodes, cfg.Replicas, cfg.CellsPerSide, 0, cfg.Seed)
	if err != nil {
		return err
	}
	defer c.close()
	//ctxcheck:allow the benchmark run is its own root; bounded by cfg.Queries
	ctx := context.Background()

	data, samples, err := c.load(time.Duration(cfg.ConvergeTimeoutS) * time.Second)
	if err != nil {
		return err
	}
	res.Loaded = len(data)
	ring := c.member(0).node.Ring()

	// The answers the owners give while alive are the contract the
	// replicas must honour after the kill.
	want := make([]float64, len(samples))
	owners := make([]int, len(samples))
	for i, req := range samples {
		owners[i] = ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := c.member(owners[i]).engine.Query(ctx, req)
		if err != nil {
			return err
		}
		want[i] = v
	}

	sc := client.NewSharded(&simTransport{c: c, to: 0}, c.clientDialer())
	defer sc.Close()
	// Warm the client's ring before the node disappears.
	s0 := samples[0]
	if _, err := sc.Exchange(wire.QueryRequest{T: s0.T, X: s0.X, Y: s0.Y, Pollutant: s0.Pollutant}); err != nil {
		return err
	}

	const victim = 2
	res.Victim = victim
	c.member(victim).dead.Store(true)

	// Survivor-owned write load interleaved with the reads: writes never
	// fail over (primary-commits design), so the mixed load mirrors what
	// an operator sees mid-outage — reads whole, writes on live shards.
	var liveWrites tuple.Batch
	for _, r := range data {
		if ring.Owner(tuple.CO2, r.Pos()) != victim {
			liveWrites = append(liveWrites, r)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for q := 0; q < cfg.Queries; q++ {
		i := rng.Intn(len(samples))
		req := samples[i]
		res.QueriesAfterKill++
		if owners[i] == victim {
			res.VictimShardQueries++
		}
		out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
		if err != nil {
			res.FailedAfterKill++
			continue
		}
		qr, ok := out.(wire.QueryResponse)
		if !ok {
			res.FailedAfterKill++
			continue
		}
		// The victim's shards are frozen mid-outage (writes never fail
		// over), so its replica must answer exactly what the owner
		// answered before dying. Survivor shards keep absorbing the
		// write load, so only success is required there.
		if owners[i] == victim && qr.Value != want[i] {
			res.Mismatches++
		}
		if q%8 == 7 {
			w := liveWrites[rng.Intn(len(liveWrites))]
			res.IngestsAfterKill++
			wr := c.member(0).node.HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{w}})
			if _, ok := wr.(wire.IngestResponse); !ok {
				res.IngestFailures++
			}
		}
	}
	res.ClientFailovers = sc.Stats().Failovers
	return nil
}

// runFailoverHedge is phase two: a healthy cluster with one slow
// primary. The same closed loop runs twice — hedging off, hedging on —
// and records the latency distributions.
func runFailoverHedge(cfg FailoverConfig, res *FailoverResult) error {
	c, err := newSimCluster(cfg.Nodes, cfg.Replicas, cfg.CellsPerSide, 0, cfg.Seed)
	if err != nil {
		return err
	}
	defer c.close()
	_, samples, err := c.load(time.Duration(cfg.ConvergeTimeoutS) * time.Second)
	if err != nil {
		return err
	}

	const slowNode = 0
	slow := c.member(slowNode)
	run := func(hedge bool) ([]float64, error) {
		sc := client.NewSharded(&simTransport{c: c, to: 1}, c.clientDialer())
		defer sc.Close()
		sc.SetHedging(hedge)
		sc.SetHedgeFloor(time.Duration(cfg.HedgeFloorMS) * time.Millisecond)
		// Warm the client's latency window on the healthy cluster, so the
		// p99-derived hedge delay reflects steady state rather than the
		// injected fault, then slow the primary for the measured loop.
		slow.delayNS.Store(0)
		for i := 0; i < 32; i++ {
			req := samples[i%len(samples)]
			if _, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}); err != nil {
				return nil, err
			}
		}
		slow.delayNS.Store(int64(time.Duration(cfg.SlowPrimaryMS) * time.Millisecond))
		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		lat := make([]float64, 0, cfg.Queries)
		for q := 0; q < cfg.Queries; q++ {
			req := samples[rng.Intn(len(samples))]
			start := time.Now()
			out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			if err != nil {
				return nil, err
			}
			if _, ok := out.(wire.QueryResponse); !ok {
				return nil, fmt.Errorf("query answered %#v", out)
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		if hedge {
			st := sc.Stats()
			res.HedgeProbes = st.Hedged
			res.HedgeWins = st.HedgeWins
		}
		return lat, nil
	}

	unhedged, err := run(false)
	if err != nil {
		return err
	}
	hedged, err := run(true)
	if err != nil {
		return err
	}
	res.UnhedgedP50Ms = percentile(unhedged, 0.50)
	res.UnhedgedP99Ms = percentile(unhedged, 0.99)
	res.HedgedP50Ms = percentile(hedged, 0.50)
	res.HedgedP99Ms = percentile(hedged, 0.99)
	return nil
}

// PrintFailover renders the benchmark result as a table.
func PrintFailover(w io.Writer, res *FailoverResult) {
	fmt.Fprintln(w, "# PR-9: replica failover + hedged reads (closed loop)")
	fmt.Fprintf(w, "%d nodes, R=%d, %d tuples, %d queries/phase, slow primary +%dms\n",
		res.Config.Nodes, res.Config.Replicas, res.Loaded, res.Config.Queries, res.Config.SlowPrimaryMS)
	fmt.Fprintf(w, "%-28s %12d\n", "queries after kill", res.QueriesAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "on dead node's shards", res.VictimShardQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "failed after kill", res.FailedAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "replica answer mismatches", res.Mismatches)
	fmt.Fprintf(w, "%-28s %12d\n", "ingests after kill", res.IngestsAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "ingest failures", res.IngestFailures)
	fmt.Fprintf(w, "%-28s %12d\n", "client failovers", res.ClientFailovers)
	fmt.Fprintf(w, "%-28s %12.3f\n", "unhedged p50 (ms)", res.UnhedgedP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "unhedged p99 (ms)", res.UnhedgedP99Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "hedged p50 (ms)", res.HedgedP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "hedged p99 (ms)", res.HedgedP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "hedge probes", res.HedgeProbes)
	fmt.Fprintf(w, "%-28s %12d\n", "hedge wins", res.HedgeWins)
	fmt.Fprintf(w, "%-28s %12v\n", "zero-error failover", res.ZeroErrorFailover)
	fmt.Fprintf(w, "%-28s %12v\n", "byte-equal replicas", res.ByteEqualReplicas)
	fmt.Fprintf(w, "%-28s %12v\n", "hedged p99 <= unhedged", res.HedgeP99Improved)
}
