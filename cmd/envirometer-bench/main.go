// Command envirometer-bench regenerates the paper's evaluation (§4): every
// figure plus the ablation studies from DESIGN.md, and the closed-loop
// system benchmarks behind the committed BENCH_*.json files.
//
// Usage:
//
//	envirometer-bench [-fig 6a|6b|7a|7b|ablations|subs|colscan|failover|rebalance|all]
//	                  [-days N] [-queries N] [-seed N]
//	                  [-subscribers N] [-rounds N] [-windows N] [-minspeedup X]
//	                  [-out FILE]
//
// By default it generates the full one-month synthetic lausanne-data
// equivalent (172,800 scheduled samples) and runs every paper figure and
// ablation; -days trims the deployment for quick runs. The closed-loop
// benchmarks (subs: BENCH_6.json, colscan: BENCH_8.json, failover:
// BENCH_9.json, rebalance: BENCH_10.json) run only by name. Each checks
// its result against its acceptance criteria and fails the command on a
// miss; with -out it writes the JSON result, parses the file back and
// checks it again.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

// options are the parsed flags. benchQueries is -queries when it was set
// explicitly and 0 otherwise, so the closed-loop benchmarks keep their
// own default instead of Figure 6's.
type options struct {
	days         float64
	queries      int
	benchQueries int
	seed         int64
	subscribers  int
	rounds       int
	windows      int
	minSpeedup   float64
	out          string
}

// figure is one -fig choice. Paper figures print tables computed from
// the simulated deployment, and -fig all runs them in table order; the
// closed-loop benchmarks run only by name.
type figure struct {
	name  string
	paper bool
	run   func(e *env) error
}

var figures = []figure{
	{name: "6a", paper: true, run: func(e *env) error {
		rows, err := e.fig6Rows()
		if err == nil {
			bench.PrintFig6a(os.Stdout, rows)
		}
		return err
	}},
	{name: "6b", paper: true, run: func(e *env) error {
		rows, err := e.fig6Rows()
		if err == nil {
			bench.PrintFig6b(os.Stdout, rows)
		}
		return err
	}},
	{name: "7a", paper: true, run: runFig7a},
	{name: "7b", paper: true, run: runFig7b},
	{name: "ablations", paper: true, run: runAblations},
	{name: "subs", run: runSubs},
	{name: "colscan", run: runColscan},
	{name: "failover", run: runFailover},
	{name: "rebalance", run: runRebalance},
}

func main() {
	var o options
	fig := flag.String("fig", "all", "which experiment: 6a, 6b, 7a, 7b, ablations, subs, colscan, failover, rebalance, all")
	flag.Float64Var(&o.days, "days", 30, "deployment duration to simulate, in days")
	flag.IntVar(&o.queries, "queries", 5000, "point queries per window size (Figure 6)")
	flag.Int64Var(&o.seed, "seed", 1, "deterministic seed for data, workloads, clustering")
	flag.IntVar(&o.subscribers, "subscribers", 0, "subscription bench: subscriber count (0 = default)")
	flag.IntVar(&o.rounds, "rounds", 0, "subscription bench: ingest rounds (0 = default)")
	flag.IntVar(&o.windows, "windows", 0, "columnar bench: checkpointed windows (0 = default 200)")
	flag.Float64Var(&o.minSpeedup, "minspeedup", 3, "columnar bench: minimum accepted cover/heatmap speedup")
	flag.StringVar(&o.out, "out", "", "subs/colscan bench: write the JSON result to this file")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "queries" {
			o.benchQueries = o.queries
		}
	})
	if err := run(*fig, &env{options: o}); err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-bench:", err)
		os.Exit(1)
	}
}

func run(name string, e *env) error {
	if name == "all" {
		sep := ""
		for _, f := range figures {
			if !f.paper {
				continue
			}
			fmt.Print(sep)
			sep = "\n"
			if err := f.run(e); err != nil {
				return err
			}
		}
		return nil
	}
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		if f.name == name {
			return f.run(e)
		}
		names = append(names, f.name)
	}
	return fmt.Errorf("unknown -fig %q (want %s, all)", name, strings.Join(names, ", "))
}

// env is one invocation: the flags, plus the simulated deployment and
// the Figure 6 rows, each computed on first use and shared by every
// figure that needs them.
type env struct {
	options
	d    *bench.Dataset
	fig6 []bench.Fig6Row
}

func (e *env) dataset() (*bench.Dataset, error) {
	if e.d == nil {
		fmt.Printf("# generating synthetic lausanne-data: %.1f days, seed %d\n", e.days, e.seed)
		d, err := bench.LoadDataset(e.seed, e.days*86400)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# dataset: %d raw tuples\n\n", len(d.Data))
		e.d = d
	}
	return e.d, nil
}

func (e *env) fig6Rows() ([]bench.Fig6Row, error) {
	if e.fig6 == nil {
		d, err := e.dataset()
		if err != nil {
			return nil, err
		}
		cfg := bench.DefaultFig6Config()
		cfg.NumQueries = e.queries
		cfg.Seed = e.seed
		if e.fig6, err = bench.RunFig6(d, cfg); err != nil {
			return nil, fmt.Errorf("figure 6: %w", err)
		}
	}
	return e.fig6, nil
}

func runFig7a(e *env) error {
	d, err := e.dataset()
	if err != nil {
		return err
	}
	cfg := bench.DefaultFig7aConfig()
	cfg.Seed = e.seed
	res, err := bench.RunFig7a(d, cfg)
	if err != nil {
		return fmt.Errorf("figure 7a: %w", err)
	}
	bench.PrintFig7a(os.Stdout, res)
	return nil
}

func runFig7b(e *env) error {
	d, err := e.dataset()
	if err != nil {
		return err
	}
	cfg := bench.DefaultFig7bConfig()
	cfg.Seed = e.seed
	res, err := bench.RunFig7b(d, cfg)
	if err != nil {
		return fmt.Errorf("figure 7b: %w", err)
	}
	bench.PrintFig7b(os.Stdout, res)
	return nil
}

func runAblations(e *env) error {
	d, err := e.dataset()
	if err != nil {
		return err
	}
	covers, err := bench.RunAblationCovers(d, 2000, e.queries, e.seed)
	if err != nil {
		return fmt.Errorf("ablation covers: %w", err)
	}
	bench.PrintAblationCovers(os.Stdout, covers)
	fmt.Println()

	families, err := bench.RunAblationModelFamily(d, 2000, e.queries, e.seed)
	if err != nil {
		return fmt.Errorf("ablation model family: %w", err)
	}
	bench.PrintAblationModelFamily(os.Stdout, families)
	fmt.Println()

	codecs, err := bench.RunAblationCodec(d, 2000, e.seed)
	if err != nil {
		return fmt.Errorf("ablation codec: %w", err)
	}
	bench.PrintAblationCodec(os.Stdout, codecs)
	fmt.Println()

	idx, err := bench.RunAblationIndexTuning(d, 5000, e.queries, 1000, e.seed)
	if err != nil {
		return fmt.Errorf("ablation index tuning: %w", err)
	}
	bench.PrintAblationIndexTuning(os.Stdout, idx)
	return nil
}

// runSubs is the closed-loop push-vs-polling benchmark (BENCH_6.json).
func runSubs(e *env) error {
	cfg := bench.DefaultSubsConfig()
	cfg.Seed = e.seed
	if e.subscribers > 0 {
		cfg.Subscribers = e.subscribers
	}
	if e.rounds > 0 {
		cfg.Rounds = e.rounds
	}
	res, err := bench.RunSubs(cfg)
	if err != nil {
		return err
	}
	bench.PrintSubs(os.Stdout, res)
	return writeVerified(e.out, res, new(bench.SubsResult))
}

// runColscan is the columnar-vs-row-replay benchmark (BENCH_8.json).
// Beyond the result's own criteria, the cold cover-build and heatmap
// workloads must clear the -minspeedup floor.
func runColscan(e *env) error {
	cfg := bench.DefaultColscanConfig()
	cfg.Seed = e.seed
	if e.windows > 0 {
		cfg.Windows = e.windows
	}
	scratch, err := os.MkdirTemp("", "colscan-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	res, err := bench.RunColscan(cfg, scratch)
	if err != nil {
		return err
	}
	bench.PrintColscan(os.Stdout, res)
	if res.CoverSpeedup < e.minSpeedup || res.HeatmapSpeedup < e.minSpeedup {
		return fmt.Errorf("speedup below floor %.1fx: cover %.2fx, heatmap %.2fx",
			e.minSpeedup, res.CoverSpeedup, res.HeatmapSpeedup)
	}
	return writeVerified(e.out, res, new(bench.ColscanResult))
}

// runFailover is the replica-failover / hedged-read benchmark
// (BENCH_9.json).
func runFailover(e *env) error {
	cfg := bench.DefaultFailoverConfig()
	cfg.Seed = e.seed
	if e.benchQueries > 0 {
		cfg.Queries = e.benchQueries
	}
	res, err := bench.RunFailover(cfg)
	if err != nil {
		return err
	}
	bench.PrintFailover(os.Stdout, res)
	return writeVerified(e.out, res, new(bench.FailoverResult))
}

// runRebalance is the live-join rebalance benchmark (BENCH_10.json).
func runRebalance(e *env) error {
	cfg := bench.DefaultRebalanceConfig()
	cfg.Seed = e.seed
	if e.benchQueries > 0 {
		cfg.Queries = e.benchQueries
	}
	res, err := bench.RunRebalance(cfg)
	if err != nil {
		return err
	}
	bench.PrintRebalance(os.Stdout, res)
	return writeVerified(e.out, res, new(bench.RebalanceResult))
}

// checked is a closed-loop benchmark result that knows its acceptance
// criteria.
type checked interface{ Check() error }

// writeVerified checks res and, when out is set, writes it to out as
// indented JSON, parses the file back into fresh (a new zero result of
// the same type) and checks that too, so a written BENCH file can only
// record a passing run.
func writeVerified(out string, res, fresh checked) error {
	if err := res.Check(); err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, fresh); err != nil {
		return fmt.Errorf("%s does not parse back: %w", out, err)
	}
	if err := fresh.Check(); err != nil {
		return fmt.Errorf("%s records a failing run: %w", out, err)
	}
	fmt.Printf("\nwrote %s (%d bytes, parses back OK)\n", out, len(raw))
	return nil
}
