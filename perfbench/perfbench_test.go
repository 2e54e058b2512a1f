package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/heatmap"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// smoke returns the parameters of a seconds-long, smoke-sized run.
func smoke(t *testing.T, trace bool, corrupt string) params {
	t.Helper()
	return params{
		seed:       1,
		seconds:    1.5,
		smoke:      true,
		trace:      trace,
		dir:        t.TempDir(),
		setupProbe: newHostProbe(),
		loadProbe:  newHostProbe(),
		traceFile:  filepath.Join(t.TempDir(), "trace.json"),
		corrupt:    corrupt,
	}
}

func runSmoke(t *testing.T, wl string, p params) *report {
	t.Helper()
	rep, err := workloads[wl](p)
	if err != nil {
		t.Fatalf("%s: %v", wl, err)
	}
	return rep
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, and requires clean checks and every end-to-end metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"query_read", "ingest_live", "cluster_replicated"} {
		t.Run(wl, func(t *testing.T) {
			rep := runSmoke(t, wl, smoke(t, false, ""))
			if len(rep.checks) > 0 {
				t.Fatalf("checks failed: %v", rep.checks)
			}
			if rep.failed > 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.extra)
			}
			for _, d := range endToEnd {
				if v := rep.e2e[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			traced := runSmoke(t, wl, smoke(t, true, ""))
			if len(traced.checks) > 0 {
				t.Fatalf("traced checks failed: %v", traced.checks)
			}
			if !(traced.layer["trace.spans"] > 0) || !(traced.layer["trace.overhead.query_qps_ratio"] > 0) {
				t.Errorf("traced run recorded no spans or overhead: %v", traced.layer)
			}
		})
	}
}

// TestChecksCatchWrongAnswers feeds each workload's correctness check a
// falsified answer and requires the check to fail.
func TestChecksCatchWrongAnswers(t *testing.T) {
	cases := map[string][]string{
		"query_read":         {"http_point", "wire_point", "route", "heatmap", "model"},
		"ingest_live":        {"push", "recovery"},
		"cluster_replicated": {"cluster_replica", "cluster_owner"},
	}
	for wl, kinds := range cases {
		for _, kind := range kinds {
			t.Run(wl+"/"+kind, func(t *testing.T) {
				rep := runSmoke(t, wl, smoke(t, false, kind))
				if len(rep.checks) == 0 {
					t.Fatalf("a falsified %s answer passed the check", kind)
				}
			})
		}
	}
}

func TestCheckPrimitives(t *testing.T) {
	if checkValue("v", 1, 1) != nil || checkValue("v", 1, 1+1e-15) == nil {
		t.Error("checkValue is not bit-exact")
	}
	a := tuple.Batch{{T: 1, X: 2, Y: 3, S: 4}, {T: 5, X: 6, Y: 7, S: 8}}
	b := tuple.Batch{a[1], a[0]}
	if err := checkTuples("t", a, b); err != nil {
		t.Errorf("reordered tuples: %v", err)
	}
	b[0].S++
	if checkTuples("t", a, b) == nil {
		t.Error("checkTuples accepted a changed tuple")
	}
	g := &heatmap.Grid{Cols: 1, Rows: 1, Values: []float64{1}}
	h := &heatmap.Grid{Cols: 1, Rows: 1, Values: []float64{2}}
	if checkGrid("g", g, g) != nil || checkGrid("g", g, h) == nil {
		t.Error("checkGrid is not exact")
	}
	if checkMessage("m", wire.QueryResponse{Value: 1}, wire.QueryResponse{Value: 1}) != nil ||
		checkMessage("m", wire.QueryResponse{Value: 1}, wire.QueryResponse{Value: 2}) == nil {
		t.Error("checkMessage is not exact")
	}
}

// TestSelfTime checks that self time subtracts the union of the child
// intervals clipped to the parent.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	s := tr.summarize()
	// Children cover [10,50) and [90,100): 50 ns of the parent's 100.
	if got := s["p"].selfUs; got != 0.05 {
		t.Errorf("self time %v us, want 0.05", got)
	}
}

func TestUploaderFlagsGrowingBacklog(t *testing.T) {
	u := &uploader{rate: 100}
	for i := 0; i < 40; i++ {
		u.late = append(u.late, float64(i)*20) // 2 intervals later each time
	}
	if !u.backlogGrows() {
		t.Error("a generator falling behind was not flagged")
	}
	u.late = make([]float64, 40)
	if u.backlogGrows() {
		t.Error("an on-time generator was flagged")
	}
}

func TestEmitPrintsEveryMetric(t *testing.T) {
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if strings.ContainsAny(d.name, " \t") {
			t.Errorf("metric name %q has blanks", d.name)
		}
		names = append(names, d.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("metric %s listed twice", n)
		}
		seen[n] = true
	}
}
