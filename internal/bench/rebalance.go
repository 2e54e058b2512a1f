package bench

// Live-rebalance benchmark (PR 10, BENCH_10.json): a closed-loop
// replicated cluster serves queries through the sharded client while a
// fourth node joins — announce, bootstrap, epoch commit, tail pull —
// and the harness measures what the transition costs the readers: the
// query latency distribution and the error count inside the join
// window. Membership traffic (ring pushes and shard-transfer pulls) is
// slowed by a configurable stall so the join spans many client
// queries, the way a real bootstrap over a network does, without
// slowing the query path itself. The result is self-validating: zero
// query errors during the join, the epoch advanced exactly once on
// every member including the joiner, the joiner owns shards, and every
// sampled answer after the rebalance is byte-equal to the answer
// before it.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// RebalanceConfig parameterises the live-join benchmark.
type RebalanceConfig struct {
	// Nodes is the starting cluster size; one more joins live.
	Nodes int `json:"nodes"`
	// Replicas is the ring replication factor.
	Replicas int `json:"replicas"`
	// CellsPerSide is the shard grid resolution (CellsPerSide^2 cells).
	CellsPerSide int `json:"cells_per_side"`
	// Queries is the closed-loop query count of the steady phase (the
	// join window runs as many as fit).
	Queries int `json:"queries"`
	// JoinStallMS delays each membership exchange (join announce, ring
	// push, shard-transfer chunk) so the bootstrap spans the query load.
	JoinStallMS int `json:"join_stall_ms"`
	// ConvergeTimeoutS bounds the wait for replica mirrors before the
	// measured run starts.
	ConvergeTimeoutS int `json:"converge_timeout_s"`
	// Seed drives the workload shuffle and the engines' clustering.
	Seed int64 `json:"seed"`
}

// DefaultRebalanceConfig is the committed BENCH_10.json workload:
// small enough for a CI smoke run, stalled enough that the join window
// holds a meaningful latency sample.
func DefaultRebalanceConfig() RebalanceConfig {
	return RebalanceConfig{
		Nodes:            3,
		Replicas:         2,
		CellsPerSide:     8,
		Queries:          256,
		JoinStallMS:      4,
		ConvergeTimeoutS: 60,
		Seed:             1,
	}
}

// RebalanceResult is the BENCH_10.json schema.
type RebalanceResult struct {
	Config RebalanceConfig `json:"config"`

	// Loaded is the tuple count ingested before the measured run.
	Loaded int `json:"loaded_tuples"`
	// EpochBefore/EpochAfter bracket the transition.
	EpochBefore uint64 `json:"epoch_before"`
	EpochAfter  uint64 `json:"epoch_after"`
	// JoinerShards is how many cells the new node owns after the commit.
	JoinerShards int `json:"joiner_shards"`
	// JoinMS is the wall time of the announce-to-committed join.
	JoinMS float64 `json:"join_ms"`

	// Steady phase: closed-loop latency before the join starts.
	SteadyQueries int     `json:"steady_queries"`
	SteadyP50Ms   float64 `json:"steady_p50_ms"`
	SteadyP99Ms   float64 `json:"steady_p99_ms"`

	// Join window: every query issued while the join was in flight.
	JoinQueries int     `json:"join_queries"`
	JoinErrors  int     `json:"join_errors"`
	JoinP50Ms   float64 `json:"join_p50_ms"`
	JoinP99Ms   float64 `json:"join_p99_ms"`

	// Post-join: the same samples re-asked through the client must
	// answer byte-equal to the pre-join owners' answers.
	PostQueries    int `json:"post_queries"`
	PostMismatches int `json:"post_mismatches"`

	// Acceptance booleans (see Check).
	ZeroErrorJoin     bool `json:"zero_error_join"`
	EpochAdvancedOnce bool `json:"epoch_advanced_once"`
	JoinerOwnsShards  bool `json:"joiner_owns_shards"`
	AnswersPreserved  bool `json:"answers_preserved"`
}

// Check reports the first acceptance criterion the run misses: its
// four booleans, plus a join window that actually holds a latency
// sample.
func (r RebalanceResult) Check() error {
	switch {
	case !r.ZeroErrorJoin:
		return fmt.Errorf("join was not error-free: %d/%d queries failed during the join window",
			r.JoinErrors, r.JoinQueries)
	case !r.EpochAdvancedOnce:
		return fmt.Errorf("epoch did not advance exactly once everywhere (%d -> %d)", r.EpochBefore, r.EpochAfter)
	case !r.JoinerOwnsShards:
		return fmt.Errorf("joiner owns no shards after the commit")
	case !r.AnswersPreserved:
		return fmt.Errorf("%d answers changed across the rebalance", r.PostMismatches)
	case r.JoinQueries <= 0 || r.JoinP99Ms <= 0:
		return fmt.Errorf("no join-window latency sample (%d queries, p99 %.3fms)", r.JoinQueries, r.JoinP99Ms)
	}
	return nil
}

// RunRebalance runs the benchmark and returns the self-validated
// result.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) {
	res := &RebalanceResult{Config: cfg}
	// Epoch 1, not 0: frames routed at epoch 0 are legacy (epoch-
	// agnostic) and are never fenced, so a measured transition must
	// start from a real epoch.
	c, err := newSimCluster(cfg.Nodes, cfg.Replicas, cfg.CellsPerSide, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer c.close()
	data, samples, err := c.load(time.Duration(cfg.ConvergeTimeoutS) * time.Second)
	if err != nil {
		return nil, err
	}
	res.Loaded = len(data)
	baseRing := c.member(0).node.Ring()
	res.EpochBefore = baseRing.Epoch()

	// The answers the cluster gives before the rebalance are the
	// contract: a join moves shards, it must not move values. The
	// record uses the order-insensitive naive interpolation — a handoff
	// replays the origin's replication log, which may reorder tuples
	// relative to the original upload, and the adaptive cover is
	// insertion-order sensitive while holding exactly the same data.
	//ctxcheck:allow the benchmark run is its own root; bounded by the sample count
	ctx := context.Background()
	naive := query.Options{Kind: query.KindNaive, Radius: 60}
	want := make([]float64, len(samples))
	for i, req := range samples {
		owner := baseRing.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := c.member(owner).engine.QueryOpts(ctx, req, naive)
		if err != nil {
			return nil, err
		}
		want[i] = v
	}

	sc := client.NewSharded(&simTransport{c: c, to: 0}, c.clientDialer())
	defer sc.Close()

	ask := func(req query.Request) (float64, error) {
		out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
		if err != nil {
			return 0, err
		}
		qr, ok := out.(wire.QueryResponse)
		if !ok {
			return 0, fmt.Errorf("query answered %#v", out)
		}
		return qr.Value, nil
	}

	// Steady phase: the latency baseline on the pre-join cluster.
	rng := rand.New(rand.NewSource(cfg.Seed))
	steady := make([]float64, 0, cfg.Queries)
	for q := 0; q < cfg.Queries; q++ {
		req := samples[rng.Intn(len(samples))]
		start := time.Now()
		if _, err := ask(req); err != nil {
			return nil, fmt.Errorf("steady-phase query: %w", err)
		}
		steady = append(steady, float64(time.Since(start).Microseconds())/1000)
	}
	res.SteadyQueries = len(steady)
	res.SteadyP50Ms = percentile(steady, 0.50)
	res.SteadyP99Ms = percentile(steady, 0.99)

	// Join phase: announce and bootstrap the fourth node while the
	// closed loop keeps asking. Membership frames are stalled so the
	// window spans many queries.
	c.stallNS.Store(int64(time.Duration(cfg.JoinStallMS) * time.Millisecond))
	joinerAddr := fmt.Sprintf("node-%d:8081", cfg.Nodes)
	pending, err := cluster.JoinCluster(&simTransport{c: c, to: 0}, joinerAddr)
	if err != nil {
		return nil, fmt.Errorf("join announce: %w", err)
	}
	c.mu.Lock()
	c.addrs = append(c.addrs, joinerAddr)
	c.mu.Unlock()
	if err := c.addNode(pending, cfg.Nodes); err != nil {
		return nil, fmt.Errorf("joiner node: %w", err)
	}
	joiner := c.member(cfg.Nodes).node

	joinStart := time.Now()
	joinDone := make(chan error, 1) //bounded: exactly one CompleteJoin result; capacity 1 lets the goroutine exit unreceived
	go func() { joinDone <- joiner.CompleteJoin(ctx) }()

	joinLat := make([]float64, 0, cfg.Queries)
	joining := true
	for joining {
		select {
		case err := <-joinDone:
			if err != nil {
				return nil, fmt.Errorf("complete join: %w", err)
			}
			joining = false
		default:
			req := samples[rng.Intn(len(samples))]
			start := time.Now()
			if _, err := ask(req); err != nil {
				res.JoinErrors++
			}
			joinLat = append(joinLat, float64(time.Since(start).Microseconds())/1000)
		}
	}
	res.JoinMS = float64(time.Since(joinStart).Microseconds()) / 1000
	c.stallNS.Store(0)
	res.JoinQueries = len(joinLat)
	res.JoinP50Ms = percentile(joinLat, 0.50)
	res.JoinP99Ms = percentile(joinLat, 0.99)

	// Post-join: epochs, placement, and answers.
	res.EpochAfter = joiner.Ring().Epoch()
	epochsAgree := true
	c.mu.Lock()
	members := append([]*simMember(nil), c.members...)
	c.mu.Unlock()
	for _, m := range members {
		if m.node.Ring().Epoch() != res.EpochAfter {
			epochsAgree = false
		}
	}
	res.JoinerShards = len(joiner.Ring().OwnedCells(cfg.Nodes, tuple.CO2))
	// Two post-join checks per sample: the client's routed answer must
	// equal the current owner engine's (routing converged), and the
	// current owner's naive answer must equal the pre-join record (no
	// tuple was lost or invented by the handoff).
	joined := joiner.Ring()
	for i, req := range samples {
		res.PostQueries++
		owner := joined.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		ownerEngine := c.member(owner).engine
		direct, err := ownerEngine.Query(ctx, req)
		if err != nil {
			res.PostMismatches++
			continue
		}
		if v, err := ask(req); err != nil || v != direct {
			res.PostMismatches++
			continue
		}
		if nv, err := ownerEngine.QueryOpts(ctx, req, naive); err != nil || nv != want[i] {
			res.PostMismatches++
		}
	}

	res.ZeroErrorJoin = res.JoinErrors == 0 && res.JoinQueries > 0
	res.EpochAdvancedOnce = epochsAgree && res.EpochAfter == res.EpochBefore+1
	res.JoinerOwnsShards = res.JoinerShards > 0
	res.AnswersPreserved = res.PostMismatches == 0
	return res, nil
}

// PrintRebalance renders the benchmark result as a table.
func PrintRebalance(w io.Writer, res *RebalanceResult) {
	fmt.Fprintln(w, "# PR-10: live node join under query load (closed loop)")
	fmt.Fprintf(w, "%d+1 nodes, R=%d, %d tuples, %d steady queries, membership stall +%dms\n",
		res.Config.Nodes, res.Config.Replicas, res.Loaded, res.Config.Queries, res.Config.JoinStallMS)
	fmt.Fprintf(w, "%-28s %12d -> %d\n", "membership epoch", res.EpochBefore, res.EpochAfter)
	fmt.Fprintf(w, "%-28s %12d\n", "joiner shards", res.JoinerShards)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join wall time (ms)", res.JoinMS)
	fmt.Fprintf(w, "%-28s %12.3f\n", "steady p50 (ms)", res.SteadyP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "steady p99 (ms)", res.SteadyP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "queries during join", res.JoinQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "errors during join", res.JoinErrors)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join-window p50 (ms)", res.JoinP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join-window p99 (ms)", res.JoinP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "post-join sample queries", res.PostQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "post-join mismatches", res.PostMismatches)
	fmt.Fprintf(w, "%-28s %12v\n", "zero-error join", res.ZeroErrorJoin)
	fmt.Fprintf(w, "%-28s %12v\n", "epoch advanced once", res.EpochAdvancedOnce)
	fmt.Fprintf(w, "%-28s %12v\n", "joiner owns shards", res.JoinerOwnsShards)
	fmt.Fprintf(w, "%-28s %12v\n", "answers preserved", res.AnswersPreserved)
}
