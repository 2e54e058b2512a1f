// Command perfbench is the repository benchmark: it drives the
// EnviroMeter platform end to end on three seeded workloads, checks
// every answer it measures, and prints either the end-to-end metrics
// (untraced run) or the per-layer metrics of a traced run.
//
//	bash perfbench/run.sh --workload query_read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints it with correct=false and exits non-zero. --workload all runs
// the three workloads in turn, each ending with its own result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with tracing off.
// Their times are scaled to the reference host (see probe.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"route_p50_ms", "ms"},
	{"heatmap_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"server.http.point_self_us", "us"},
	{"server.http.route_self_us", "us"},
	{"server.http.ingest_self_us", "us"},
	{"server.engine.query_us", "us"},
	{"server.engine.query_allocs", "count"},
	{"server.engine.query_bytes", "B"},
	{"server.engine.route_us", "us"},
	{"server.engine.heatmap_us", "us"},
	{"server.engine.model_us", "us"},
	{"server.engine.ingest_us", "us"},
	{"query.cover_over_naive_ratio", "ratio"},
	{"core.maintainer.cover_at_us", "us"},
	{"core.cover.interpolate_us", "us"},
	{"core.maintainer.hit_ratio", "ratio"},
	{"core.build_ms", "ms"},
	{"core.scheduler.builds_per_upload", "count"},
	{"core.scheduler.skipped", "count"},
	{"core.scheduler.dropped", "count"},
	{"core.scheduler.queue_max", "count"},
	{"core.mirror_builds_per_upload", "count"},
	{"store.window_us", "us"},
	{"store.window_bytes", "B"},
	{"store.append_us", "us"},
	{"store.syncs_per_append", "count"},
	{"store.bytes_per_tuple", "B"},
	{"store.checkpoints", "count"},
	{"store.checkpoint_ms", "ms"},
	{"store.reopen_ms", "ms"},
	{"colblock.materializations", "count"},
	{"colblock.lazy_windows_end", "count"},
	{"colblock.bytes_read", "B"},
	{"ingest.coalesce_ratio", "ratio"},
	{"ingest.rejected", "count"},
	{"subs.avoided_ratio", "ratio"},
	{"subs.point_reevals_per_push", "count"},
	{"subs.resyncs", "count"},
	{"subs.eval_us", "us"},
	{"heatmap.raster_us", "us"},
	{"cluster.router.query_self_us", "us"},
	{"cluster.router.forwards_per_query", "count"},
	{"cluster.router.forwards_per_upload", "count"},
	{"cluster.router.scatter_us", "us"},
	{"cluster.repl.primary_self_us", "us"},
	{"cluster.repl.mirror_apply_us", "us"},
	{"cluster.repl.stream_drops", "count"},
	{"cluster.repl.gap_naks", "count"},
	{"cluster.repl.catchups", "count"},
	{"proto.exchange_self_us", "us"},
	{"wire.codec_us.query", "us"},
	{"wire.codec_us.ingest", "us"},
	{"wire.codec_us.model", "us"},
	{"wire.model_decode_allocs", "count"},
	{"wire.model_bytes", "B"},
	{"wire.bytes_per_upload", "B"},
	{"trace.overhead.query_p50_ratio", "ratio"},
	{"trace.overhead.query_qps_ratio", "ratio"},
	{"trace.spans", "count"},
}

// params configures one run.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every data size so a run takes seconds (tests).
	smoke bool
	// dir is the scratch directory of the run (data, traces).
	dir string
	// setupProbe times the host after each set-up, loadProbe between
	// load segments; each scales the times measured around it.
	setupProbe, loadProbe *hostProbe
	// traceFile is where a traced run writes its spans.
	traceFile string
	// corrupt names an answer the run falsifies before checking it, so
	// tests can show that the check catches it.
	corrupt string
}

// report is what a workload run produces.
type report struct {
	workload  workloadInfo
	env       envInfo
	e2e       map[string]float64
	layer     map[string]float64
	extra     []string // workload-specific end-to-end lines
	attempted int64
	failed    int64
	checks    []string // failed correctness checks
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// scaleTimes scales the end-to-end times to the reference host, the
// set-up time by the set-up probes and the load's times by the load
// probes, and prints the times as measured.
func (r *report) scaleTimes(setup, load *hostProbe) {
	setup.report(r, "setup_")
	load.report(r, "")
	for _, d := range endToEnd {
		pr := load
		if d.name == "setup_s" {
			pr = setup
		}
		if d.unit == "s" || d.unit == "ms" {
			r.extraf("raw."+d.name, r.e2e[d.name], d.unit)
			r.e2e[d.name] *= pr.scale()
		}
	}
}

func (r *report) extraf(name string, v float64, unit string) {
	r.extra = append(r.extra, fmt.Sprintf("%s %.6g %s", name, v, unit))
}

// workloadInfo records what a workload runs and why.
type workloadInfo struct {
	Name       string  `json:"name"`
	Why        string  `json:"why"`
	Data       string  `json:"data"`
	UploadRate float64 `json:"upload_rate_per_s"`
	Mix        string  `json:"mix"`
}

var workloads = map[string]func(params) (*report, error){
	"query_read":         runQueryRead,
	"ingest_live":        runIngestLive,
	"cluster_replicated": runClusterReplicated,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: query_read, ingest_live, cluster_replicated, or all to run the three in turn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"query_read", "ingest_live", "cluster_replicated"}
	}
	code := 0
	for _, name := range names {
		if c := runOne(name, *seed, *seconds, *trace == 1); c > code {
			code = c
		}
	}
	os.Exit(code)
}

// runOne runs one workload and prints its result. It returns the exit
// code: 2 for an unknown workload, 1 for a failed run or check.
func runOne(workload string, seed int64, seconds float64, traced bool) int {
	run, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", workload)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{seed: seed, seconds: seconds, trace: traced, dir: dir,
		setupProbe: newHostProbe(), loadProbe: newHostProbe(),
		traceFile: filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))}
	rep, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	rep.scaleTimes(p.setupProbe, p.loadProbe)
	if !emit(os.Stdout, rep, p.trace) {
		return 1
	}
	return 0
}

// emit prints the run's records and metrics, then the result line. It
// returns false when a correctness check failed.
func emit(w *os.File, rep *report, traced bool) bool {
	info, _ := json.Marshal(rep.workload)
	env, _ := json.Marshal(rep.env)
	fmt.Fprintf(w, "# workload %s\n# env %s\n", info, env)
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	out := resultOut{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %.6g %s\n", d.name, v, d.unit)
	}
	if !traced {
		for _, l := range rep.extra {
			fmt.Fprintln(w, l)
		}
	}
	for _, c := range rep.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
	return out.Correct
}

func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
