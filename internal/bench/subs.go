package bench

// The PR-6 closed-loop subscription benchmark: N subscribers hold
// routes over the Lausanne corridor while ingest rounds land in one
// window at a time. Each round measures the ingest-to-push latency at
// every subscriber whose window was touched, the bytes actually pushed
// (delta frames), and the bytes the same subscribers would have
// transferred under PR-5-style polling (a full route vector per
// subscriber per round). Registry stats supply the re-evaluations the
// invalidation hook avoided. The result serializes to BENCH_6.json.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// SubsConfig parameterizes the subscription benchmark.
type SubsConfig struct {
	// Subscribers is N, spread round-robin over the windows.
	Subscribers int `json:"subscribers"`
	// RoutePoints is the points per subscribed route (the paper's
	// commuter route; the acceptance criterion uses 20).
	RoutePoints int `json:"route_points"`
	// Windows is how many time windows the deployment spans; each
	// subscriber's route lives in one window, so a round's ingest
	// overlaps only the subscribers of its target window.
	Windows int `json:"windows"`
	// WindowLen is the window length in seconds.
	WindowLen float64 `json:"window_len_s"`
	// Rounds is the number of ingest rounds (round r targets window
	// r mod Windows).
	Rounds int `json:"rounds"`
	// SamplingInterval overrides the deployment's sampling cadence so
	// short runs still fill every window.
	SamplingInterval float64 `json:"sampling_interval_s"`
	// JitterSigma is how far route points stray from the sensed
	// corridor, in meters.
	JitterSigma float64 `json:"jitter_sigma_m"`
	// QueueDepth bounds each subscription's push queue.
	QueueDepth int `json:"queue_depth"`
	// Seed drives the deployment, the routes, and clustering.
	Seed int64 `json:"seed"`
}

// DefaultSubsConfig returns the committed BENCH_6.json workload.
func DefaultSubsConfig() SubsConfig {
	return SubsConfig{
		Subscribers:      8,
		RoutePoints:      20,
		Windows:          4,
		WindowLen:        600,
		Rounds:           12,
		SamplingInterval: 4,
		JitterSigma:      150,
		QueueDepth:       32,
		Seed:             1,
	}
}

// SubsResult is the benchmark's measurement, the schema of BENCH_6.json.
type SubsResult struct {
	Config SubsConfig `json:"config"`

	// TuplesIngested counts tuples across preload and rounds.
	TuplesIngested int `json:"tuples_ingested"`
	// PushLatencyP50Ms / P99Ms are ingest-call-to-push-receipt
	// percentiles across every (round, touched subscriber) pair.
	PushLatencyP50Ms float64 `json:"push_latency_p50_ms"`
	PushLatencyP99Ms float64 `json:"push_latency_p99_ms"`
	// PushSamples is how many latency samples the percentiles cover.
	PushSamples int `json:"push_samples"`
	// MissedPushes counts touched subscribers that produced no push
	// within the wait budget (an all-points-unchanged rebuild).
	MissedPushes int `json:"missed_pushes"`

	// PushedFrames/PushedBytes is what the server actually sent:
	// wire-encoded delta frames.
	PushedFrames int `json:"pushed_frames"`
	PushedBytes  int `json:"pushed_bytes"`
	// PolledBytes is the polling equivalent: every subscriber fetching
	// its full route vector every round, wire-encoded.
	PolledBytes int `json:"polled_bytes"`
	// PushedOverPolled is PushedBytes / PolledBytes.
	PushedOverPolled float64 `json:"pushed_over_polled"`

	// Registry counters over the round phase.
	ReEvals        int64 `json:"re_evals"`
	ReEvalsAvoided int64 `json:"re_evals_avoided"`
	PointReEvals   int64 `json:"point_re_evals"`
	DeltaPoints    int64 `json:"delta_points"`
}

// Check reports the first acceptance criterion the run misses: both
// paths recorded traffic, and pushing sent fewer bytes than polling.
func (r SubsResult) Check() error {
	if r.PushedBytes <= 0 || r.PolledBytes <= 0 {
		return fmt.Errorf("no traffic recorded (pushed %d, polled %d)", r.PushedBytes, r.PolledBytes)
	}
	if r.PushedBytes >= r.PolledBytes {
		return fmt.Errorf("pushed bytes %d not below polled bytes %d", r.PushedBytes, r.PolledBytes)
	}
	return nil
}

// subscriber is one benchmark client: its route, live handle, and the
// value vector a polling client would re-download each round.
type subscriber struct {
	window int
	handle subs.Handle
	vector []subs.PointValue
}

func (s *subscriber) apply(ev subs.Event) {
	for _, p := range ev.Points {
		if p.Index >= 0 && p.Index < len(s.vector) {
			s.vector[p.Index] = p
		}
	}
}

// fullVector is the wire frame a poll of the whole route transfers.
func (s *subscriber) fullVector(seq uint64) wire.Push {
	ev := subs.Event{Seq: seq, Resync: true, Points: s.vector}
	return subs.PushFromEvent(s.handle.ID(), ev)
}

// RunSubs executes the closed-loop subscription benchmark.
//
//ctxcheck:allow the closed loop is bounded by cfg.Rounds; the harness owns the run
func RunSubs(cfg SubsConfig) (*SubsResult, error) {
	if cfg.Subscribers <= 0 || cfg.RoutePoints <= 0 || cfg.Windows <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("bench: subs config %+v: counts must be > 0", cfg)
	}
	if cfg.WindowLen <= 0 || cfg.SamplingInterval <= 0 {
		return nil, fmt.Errorf("bench: subs config %+v: durations must be > 0", cfg)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}

	// The deployment: the Lausanne corridor trimmed to exactly the
	// benchmark's windows, sampled densely enough to fill each.
	simCfg := sim.DefaultLausanne(cfg.Seed)
	simCfg.SamplingInterval = cfg.SamplingInterval
	simCfg.Duration = cfg.WindowLen * float64(cfg.Windows)
	data, err := sim.Generate(simCfg)
	if err != nil {
		return nil, err
	}

	// Partition the stream by window, then split each window's tuples
	// into one preload chunk plus one chunk per round targeting it.
	wins := make([]tuple.Batch, cfg.Windows)
	for _, r := range data {
		w := int(r.T / cfg.WindowLen)
		if w >= 0 && w < cfg.Windows {
			wins[w] = append(wins[w], r)
		}
	}
	chunks := make([][]tuple.Batch, cfg.Windows)
	for w := range wins {
		parts := 1 + (cfg.Rounds-w+cfg.Windows-1)/cfg.Windows // preload + rounds hitting w
		if len(wins[w]) < parts {
			return nil, fmt.Errorf("bench: window %d holds %d tuples for %d chunks — raise the sampling rate", w, len(wins[w]), parts)
		}
		per := len(wins[w]) / parts
		for p := 0; p < parts; p++ {
			end := (p + 1) * per
			if p == parts-1 {
				end = len(wins[w])
			}
			chunks[w] = append(chunks[w], wins[w][p*per:end])
		}
	}

	st := store.MustOpenMemory(cfg.WindowLen)
	eng, err := server.NewMultiEngineOpts(
		map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		PaperConfig(0.02, cfg.Seed),
		server.Options{Subs: subs.Config{QueueDepth: cfg.QueueDepth}},
	)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	//ctxcheck:allow the benchmark run is its own root; bounded by cfg.Rounds
	ctx := context.Background()

	res := &SubsResult{Config: cfg}
	ingest := func(b tuple.Batch) error {
		if err := eng.Ingest(ctx, tuple.CO2, b); err != nil {
			return err
		}
		res.TuplesIngested += len(b)
		return nil
	}
	for w := 0; w < cfg.Windows; w++ {
		if err := ingest(chunks[w][0]); err != nil {
			return nil, fmt.Errorf("bench: preload window %d: %w", w, err)
		}
	}

	// Routes: points jittered off the window's sensed corridor, times
	// taken from anchor tuples so every point binds inside the window.
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	subscribers := make([]*subscriber, cfg.Subscribers)
	for i := range subscribers {
		w := i % cfg.Windows
		pts := make([]query.Request, cfg.RoutePoints)
		for j := range pts {
			anchor := wins[w][rng.Intn(len(wins[w]))]
			pts[j] = query.Request{
				T:         anchor.T,
				X:         anchor.X + rng.NormFloat64()*cfg.JitterSigma,
				Y:         anchor.Y + rng.NormFloat64()*cfg.JitterSigma,
				Pollutant: tuple.CO2,
			}
		}
		h, err := eng.Subscribe(ctx, tuple.CO2, pts)
		if err != nil {
			return nil, fmt.Errorf("bench: subscriber %d: %w", i, err)
		}
		defer h.Close()
		s := &subscriber{window: w, handle: h, vector: make([]subs.PointValue, cfg.RoutePoints)}
		select {
		case ev := <-h.Events(): // initial full vector (resync, seq 1)
			s.apply(ev)
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("bench: subscriber %d never received its initial vector", i)
		}
		subscribers[i] = s
	}
	statsBefore := eng.Subscriptions().Stats()

	encodedLen := func(p wire.Push) (int, error) {
		b, err := wire.Binary.Encode(p)
		if err != nil {
			return 0, err
		}
		return len(b), nil
	}

	var latencies []float64
	for r := 0; r < cfg.Rounds; r++ {
		w := r % cfg.Windows
		chunk := chunks[w][1+r/cfg.Windows]
		t0 := time.Now()
		if err := ingest(chunk); err != nil {
			return nil, fmt.Errorf("bench: round %d: %w", r, err)
		}
		for _, s := range subscribers {
			if s.window != w {
				continue
			}
			select {
			case ev := <-s.handle.Events():
				latencies = append(latencies, float64(time.Since(t0).Microseconds())/1000)
				n, err := encodedLen(subs.PushFromEvent(s.handle.ID(), ev))
				if err != nil {
					return nil, err
				}
				res.PushedFrames++
				res.PushedBytes += n
				s.apply(ev)
			case <-time.After(15 * time.Second):
				// A rebuild that moved no subscribed value pushes nothing;
				// record it rather than failing the run.
				res.MissedPushes++
			}
		}
		// The polling baseline transfers every subscriber's full route
		// vector this round, changed or not.
		for _, s := range subscribers {
			n, err := encodedLen(s.fullVector(uint64(r + 1)))
			if err != nil {
				return nil, err
			}
			res.PolledBytes += n
		}
	}

	eng.Subscriptions().Wait()
	stats := eng.Subscriptions().Stats()
	res.ReEvals = stats.ReEvals - statsBefore.ReEvals
	res.ReEvalsAvoided = stats.Avoided - statsBefore.Avoided
	res.PointReEvals = stats.PointReEvals - statsBefore.PointReEvals
	res.DeltaPoints = stats.DeltaPoints - statsBefore.DeltaPoints
	res.PushSamples = len(latencies)
	res.PushLatencyP50Ms = percentile(latencies, 0.50)
	res.PushLatencyP99Ms = percentile(latencies, 0.99)
	if res.PolledBytes > 0 {
		res.PushedOverPolled = float64(res.PushedBytes) / float64(res.PolledBytes)
	}
	return res, nil
}

// percentile returns the p-quantile (0 < p <= 1) of values, by the
// nearest-rank method; 0 for an empty set.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// PrintSubs renders the benchmark result as a table.
func PrintSubs(w io.Writer, res *SubsResult) {
	fmt.Fprintln(w, "# PR-6: push subscriptions vs polling (closed loop)")
	fmt.Fprintf(w, "subscribers %d, %d-point routes over %d windows, %d ingest rounds, %d tuples\n",
		res.Config.Subscribers, res.Config.RoutePoints, res.Config.Windows, res.Config.Rounds, res.TuplesIngested)
	fmt.Fprintf(w, "%-28s %12.3f\n", "push latency p50 (ms)", res.PushLatencyP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "push latency p99 (ms)", res.PushLatencyP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "pushed frames", res.PushedFrames)
	fmt.Fprintf(w, "%-28s %12d\n", "pushed bytes", res.PushedBytes)
	fmt.Fprintf(w, "%-28s %12d\n", "polled bytes (baseline)", res.PolledBytes)
	fmt.Fprintf(w, "%-28s %12.4f\n", "pushed/polled", res.PushedOverPolled)
	fmt.Fprintf(w, "%-28s %12d\n", "re-evals", res.ReEvals)
	fmt.Fprintf(w, "%-28s %12d\n", "re-evals avoided", res.ReEvalsAvoided)
	fmt.Fprintf(w, "%-28s %12d\n", "point re-evals", res.PointReEvals)
	fmt.Fprintf(w, "%-28s %12d\n", "delta points", res.DeltaPoints)
	if res.MissedPushes > 0 {
		fmt.Fprintf(w, "%-28s %12d\n", "missed pushes", res.MissedPushes)
	}
}
