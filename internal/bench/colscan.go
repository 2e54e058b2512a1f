package bench

// The PR-8 columnar-scan benchmark: the same checkpointed multi-window
// log is reopened through the columnar sidecar (lazy recovery + block
// scans) and through plain row replay (eager checkpoint decode), and
// both paths run the analytical workloads the sidecar targets — cold
// cover builds, cold region heatmaps, and zone-pruned region scans.
// Every phase cross-checks the two paths bit-for-bit before any timing
// is reported. The result serializes to BENCH_8.json.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/store"
	"repro/internal/tuple"
)

// ColscanConfig parameterizes the columnar-scan benchmark.
type ColscanConfig struct {
	// Windows is how many time windows the checkpointed log spans (the
	// acceptance run uses 200).
	Windows int `json:"windows"`
	// TuplesPerWindow is the ingest density.
	TuplesPerWindow int `json:"tuples_per_window"`
	// WindowLen is the window length in seconds.
	WindowLen float64 `json:"window_len_s"`
	// CoverWindows is how many windows the cold cover-build phase
	// touches, spread evenly across the log.
	CoverWindows int `json:"cover_windows"`
	// HeatmapRounds is how many cold region-heatmap renders each path
	// performs; every round reopens the store, so each render pays the
	// full restart-to-pixels cost.
	HeatmapRounds int `json:"heatmap_rounds"`
	// Cols and Rows are the heatmap raster dimensions.
	Cols int `json:"cols"`
	Rows int `json:"rows"`
	// RegionScans is how many zone-pruned region scans run per path.
	RegionScans int `json:"region_scans"`
	// BlockTuples overrides the sidecar tuples-per-block target (0 =
	// colblock default).
	BlockTuples int `json:"block_tuples"`
	// Seed drives the synthetic deployment and clustering.
	Seed int64 `json:"seed"`
}

// DefaultColscanConfig returns the committed BENCH_8.json workload: a
// 200-window checkpointed log, per the acceptance criterion.
func DefaultColscanConfig() ColscanConfig {
	return ColscanConfig{
		Windows:         200,
		TuplesPerWindow: 500,
		WindowLen:       600,
		CoverWindows:    8,
		HeatmapRounds:   12,
		Cols:            48,
		Rows:            32,
		RegionScans:     64,
		BlockTuples:     128,
		Seed:            1,
	}
}

// ColscanResult is the benchmark's measurement, the schema of
// BENCH_8.json. Row* fields measure the eager row-replay path, Col* the
// columnar sidecar path, over identical on-disk state.
type ColscanResult struct {
	Config ColscanConfig `json:"config"`

	// TuplesIngested is the checkpointed log's tuple count;
	// CheckpointBytes and SidecarBytes are the two files' sizes, and
	// BlocksWritten the sidecar's block count.
	TuplesIngested  int   `json:"tuples_ingested"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	SidecarBytes    int64 `json:"sidecar_bytes"`
	BlocksWritten   int64 `json:"blocks_written"`

	// Cold open + CoverWindows cover builds, end to end.
	RowCoverBuildMs float64 `json:"row_cover_build_ms"`
	ColCoverBuildMs float64 `json:"col_cover_build_ms"`
	CoverSpeedup    float64 `json:"cover_speedup"`

	// Cold region heatmaps: every round reopens the store and renders
	// one window; percentiles are across rounds.
	RowHeatmapP50Ms float64 `json:"row_heatmap_p50_ms"`
	RowHeatmapP99Ms float64 `json:"row_heatmap_p99_ms"`
	ColHeatmapP50Ms float64 `json:"col_heatmap_p50_ms"`
	ColHeatmapP99Ms float64 `json:"col_heatmap_p99_ms"`
	HeatmapSpeedup  float64 `json:"heatmap_speedup"`

	// Zone-pruned region scans (columnar) vs filtered window reads
	// (row) on a lazily recovered store.
	RowRegionScanP50Ms float64 `json:"row_region_scan_p50_ms"`
	ColRegionScanP50Ms float64 `json:"col_region_scan_p50_ms"`

	// Columnar reader accounting, summed across the columnar phases.
	ColBytesRead  int64 `json:"col_bytes_read"`
	BlocksScanned int64 `json:"blocks_scanned"`
	BlocksPruned  int64 `json:"blocks_pruned"`
	MmapReads     int64 `json:"mmap_reads"`
	ReadAtReads   int64 `json:"read_at_reads"`
	// RowBytesRead is what each eager open decodes: the full checkpoint
	// file, once per row-path open.
	RowBytesRead int64 `json:"row_bytes_read"`

	// Equivalent records that every cross-check passed: covers, heatmap
	// rasters, and region scans bit-identical between the two paths.
	Equivalent bool `json:"equivalent"`
}

// Check reports the first acceptance criterion the run misses: both
// scan paths answered identically, and the columnar path actually read
// blocks. The speedup floor is the caller's to choose.
func (r ColscanResult) Check() error {
	if !r.Equivalent {
		return fmt.Errorf("columnar and row scan paths returned different answers")
	}
	if r.BlocksScanned <= 0 || r.ColBytesRead <= 0 {
		return fmt.Errorf("no columnar reads recorded (%d blocks, %d bytes)", r.BlocksScanned, r.ColBytesRead)
	}
	return nil
}

// colscanClusters returns window c's cluster centers: a handful of
// sites that drift window to window, so blocks sort into distinct cell
// runs and region scans have something to prune.
func colscanClusters(c int, rng *rand.Rand) []geo.Point {
	centers := make([]geo.Point, 4)
	for i := range centers {
		centers[i] = geo.Point{
			X: float64((c*7+i*13)%40)*500 + rng.Float64()*50,
			Y: float64((c*3+i*11)%30)*500 + rng.Float64()*50,
		}
	}
	return centers
}

// colscanBuild ingests the deployment into dir and checkpoints it with
// the sidecar enabled, returning the log's tuple count and write stats.
func colscanBuild(cfg ColscanConfig, dir string) (int, store.ColumnarStats, error) {
	st, err := store.Open(store.Config{
		WindowLength: cfg.WindowLen,
		Dir:          dir,
		Sync:         store.SyncNever(),
		Columnar:     store.ColumnarConfig{Enabled: true, BlockTuples: cfg.BlockTuples},
	})
	if err != nil {
		return 0, store.ColumnarStats{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := 0
	for c := 0; c < cfg.Windows; c++ {
		centers := colscanClusters(c, rng)
		b := make(tuple.Batch, cfg.TuplesPerWindow)
		for i := range b {
			ct := centers[i%len(centers)]
			b[i] = tuple.Raw{
				T: float64(c)*cfg.WindowLen + rng.Float64()*cfg.WindowLen,
				X: ct.X + rng.NormFloat64()*120,
				Y: ct.Y + rng.NormFloat64()*120,
				S: 420 + 0.02*ct.X + 0.01*ct.Y + rng.NormFloat64()*5,
			}
		}
		if err := st.Append(b); err != nil {
			st.Close()
			return 0, store.ColumnarStats{}, err
		}
		total += len(b)
	}
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return 0, store.ColumnarStats{}, err
	}
	ws := st.ColumnarStats()
	if err := st.Close(); err != nil {
		return 0, store.ColumnarStats{}, err
	}
	return total, ws, nil
}

// colscanOpen opens the built log through one of the two scan paths.
func colscanOpen(cfg ColscanConfig, dir string, columnar bool) (*store.Store, error) {
	return store.Open(store.Config{
		WindowLength: cfg.WindowLen,
		Dir:          dir,
		Sync:         store.SyncNever(),
		Columnar:     store.ColumnarConfig{Enabled: columnar, BlockTuples: cfg.BlockTuples},
	})
}

// copyBenchDir duplicates the built log so each path reopens identical
// on-disk state without the other's segment-file footprint.
func copyBenchDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// coverWindowsFor spreads the cover-build phase evenly across the log.
func coverWindowsFor(cfg ColscanConfig) []int {
	n := cfg.CoverWindows
	if n > cfg.Windows {
		n = cfg.Windows
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * cfg.Windows / n
	}
	return out
}

// sampleGrid returns fixed probe points inside window c's data extent.
func sampleGrid(st *store.Store, c int, cfg ColscanConfig) []geo.Point {
	bounds, ok := st.WindowBounds(c)
	if !ok {
		return nil
	}
	var pts []geo.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			pts = append(pts, geo.Point{
				X: bounds.Min.X + (bounds.Max.X-bounds.Min.X)*float64(i)/3,
				Y: bounds.Min.Y + (bounds.Max.Y-bounds.Min.Y)*float64(j)/3,
			})
		}
	}
	return pts
}

// RunColscan executes the columnar-scan benchmark: build once, then
// drive both scan paths over copies of the same files.
func RunColscan(cfg ColscanConfig, scratch string) (*ColscanResult, error) {
	if cfg.Windows <= 0 || cfg.TuplesPerWindow <= 0 || cfg.WindowLen <= 0 {
		return nil, fmt.Errorf("bench: colscan config %+v: counts and window length must be > 0", cfg)
	}
	if cfg.CoverWindows <= 0 || cfg.HeatmapRounds <= 0 || cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("bench: colscan config %+v: phase sizes must be > 0", cfg)
	}
	res := &ColscanResult{Config: cfg, Equivalent: true}

	buildDir := filepath.Join(scratch, "log")
	total, ws, err := colscanBuild(cfg, buildDir)
	if err != nil {
		return nil, err
	}
	res.TuplesIngested = total
	res.BlocksWritten = ws.BlocksWritten
	if ws.SidecarsWritten == 0 || ws.WriteFailures != 0 {
		return nil, fmt.Errorf("bench: sidecar not written (stats %+v)", ws)
	}
	entries, err := os.ReadDir(buildDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case filepath.Ext(e.Name()) == ".emc":
			res.SidecarBytes += info.Size()
		case len(e.Name()) > 11 && e.Name()[:11] == "checkpoint-":
			res.CheckpointBytes += info.Size()
		}
	}
	rowDir := filepath.Join(scratch, "row")
	colDir := filepath.Join(scratch, "col")
	if err := copyBenchDir(buildDir, rowDir); err != nil {
		return nil, err
	}
	if err := copyBenchDir(buildDir, colDir); err != nil {
		return nil, err
	}
	dirFor := func(columnar bool) string {
		if columnar {
			return colDir
		}
		return rowDir
	}

	// Phase 1 — cold cover builds: restart-to-covers over CoverWindows
	// windows, plus bit-exact probes of every built cover.
	covers := coverWindowsFor(cfg)
	type probe struct{ v float64 }
	probes := map[bool][]probe{}
	for _, columnar := range []bool{false, true} {
		t0 := time.Now()
		st, err := colscanOpen(cfg, dirFor(columnar), columnar)
		if err != nil {
			return nil, err
		}
		mnt := core.NewMaintainer(st, PaperConfig(0.02, cfg.Seed))
		for _, c := range covers {
			cv, err := mnt.CoverFor(c)
			if err != nil {
				mnt.Close()
				st.Close()
				return nil, fmt.Errorf("bench: cover window %d (columnar=%v): %w", c, columnar, err)
			}
			tt := (float64(c) + 0.5) * cfg.WindowLen
			for _, p := range sampleGrid(st, c, cfg) {
				v, err := cv.Interpolate(tt, p.X, p.Y)
				if err != nil {
					v = math.NaN()
				}
				probes[columnar] = append(probes[columnar], probe{v})
			}
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if columnar {
			res.ColCoverBuildMs = ms
			cs := st.ColumnarStats()
			res.ColBytesRead += cs.BytesRead
			res.BlocksScanned += cs.BlocksScanned
			res.BlocksPruned += cs.BlocksPruned
			res.MmapReads += cs.MmapReads
			res.ReadAtReads += cs.ReadAtReads
		} else {
			res.RowCoverBuildMs = ms
			res.RowBytesRead += res.CheckpointBytes
		}
		mnt.Close()
		st.Close()
	}
	if len(probes[false]) != len(probes[true]) {
		res.Equivalent = false
	} else {
		for i := range probes[false] {
			a, b := probes[false][i].v, probes[true][i].v
			if math.Float64bits(a) != math.Float64bits(b) {
				res.Equivalent = false
				break
			}
		}
	}
	if res.ColCoverBuildMs > 0 {
		res.CoverSpeedup = res.RowCoverBuildMs / res.ColCoverBuildMs
	}

	// Phase 2 — cold region heatmaps: each round is restart → cover →
	// raster of one window over its exact bounds; rasters must match
	// cell for cell across the paths.
	grids := map[bool][]*heatmap.Grid{}
	for _, columnar := range []bool{false, true} {
		var lat []float64
		for r := 0; r < cfg.HeatmapRounds; r++ {
			c := (r * 37) % cfg.Windows
			t0 := time.Now()
			st, err := colscanOpen(cfg, dirFor(columnar), columnar)
			if err != nil {
				return nil, err
			}
			mnt := core.NewMaintainer(st, PaperConfig(0.02, cfg.Seed))
			cv, err := mnt.CoverFor(c)
			if err == nil {
				bounds, ok := st.WindowBounds(c)
				if !ok {
					err = fmt.Errorf("bench: window %d has no bounds", c)
				} else {
					tt := (float64(c) + 0.5) * cfg.WindowLen
					var g *heatmap.Grid
					g, err = heatmap.FromCover(cv, bounds.Inflate(100), cfg.Cols, cfg.Rows, tt)
					if err == nil {
						grids[columnar] = append(grids[columnar], g)
					}
				}
			}
			lat = append(lat, float64(time.Since(t0).Microseconds())/1000)
			if columnar {
				cs := st.ColumnarStats()
				res.ColBytesRead += cs.BytesRead
				res.BlocksScanned += cs.BlocksScanned
				res.BlocksPruned += cs.BlocksPruned
				res.MmapReads += cs.MmapReads
				res.ReadAtReads += cs.ReadAtReads
			} else {
				res.RowBytesRead += res.CheckpointBytes
			}
			mnt.Close()
			st.Close()
			if err != nil {
				return nil, fmt.Errorf("bench: heatmap round %d (columnar=%v): %w", r, columnar, err)
			}
		}
		if columnar {
			res.ColHeatmapP50Ms = percentile(lat, 0.50)
			res.ColHeatmapP99Ms = percentile(lat, 0.99)
		} else {
			res.RowHeatmapP50Ms = percentile(lat, 0.50)
			res.RowHeatmapP99Ms = percentile(lat, 0.99)
		}
	}
	if len(grids[false]) != len(grids[true]) {
		res.Equivalent = false
	} else {
		for i := range grids[false] {
			a, b := grids[false][i], grids[true][i]
			if a.Region != b.Region || len(a.Values) != len(b.Values) {
				res.Equivalent = false
				break
			}
			for j := range a.Values {
				if math.Float64bits(a.Values[j]) != math.Float64bits(b.Values[j]) {
					res.Equivalent = false
					break
				}
			}
		}
	}
	if res.ColHeatmapP50Ms > 0 {
		res.HeatmapSpeedup = res.RowHeatmapP50Ms / res.ColHeatmapP50Ms
	}

	// Phase 3 — region scans on one lazily recovered store per path:
	// the columnar side streams zone-pruned blocks, the row side
	// filters its eagerly decoded windows. Results are compared as
	// sorted sets (the block scan yields cell order, not append order).
	if cfg.RegionScans > 0 {
		stRow, err := colscanOpen(cfg, rowDir, false)
		if err != nil {
			return nil, err
		}
		stCol, err := colscanOpen(cfg, colDir, true)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		var rowLat, colLat []float64
		for i := 0; i < cfg.RegionScans; i++ {
			c := rng.Intn(cfg.Windows)
			centers := colscanClusters(c, rand.New(rand.NewSource(cfg.Seed+int64(c))))
			ct := centers[rng.Intn(len(centers))]
			region := geo.Rect{
				Min: geo.Point{X: ct.X - 400, Y: ct.Y - 400},
				Max: geo.Point{X: ct.X + 400, Y: ct.Y + 400},
			}
			t0 := time.Now()
			got := stCol.WindowRegion(c, region)
			colLat = append(colLat, float64(time.Since(t0).Microseconds())/1000)
			t0 = time.Now()
			want := stRow.WindowRegion(c, region)
			rowLat = append(rowLat, float64(time.Since(t0).Microseconds())/1000)
			if !sameTupleSet(got, want) {
				res.Equivalent = false
			}
		}
		res.ColRegionScanP50Ms = percentile(colLat, 0.50)
		res.RowRegionScanP50Ms = percentile(rowLat, 0.50)
		cs := stCol.ColumnarStats()
		res.ColBytesRead += cs.BytesRead
		res.BlocksScanned += cs.BlocksScanned
		res.BlocksPruned += cs.BlocksPruned
		res.MmapReads += cs.MmapReads
		res.ReadAtReads += cs.ReadAtReads
		res.RowBytesRead += res.CheckpointBytes
		stRow.Close()
		stCol.Close()
	}
	return res, nil
}

// sameTupleSet compares two batches as multisets of exact bit patterns.
func sameTupleSet(a, b tuple.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r tuple.Raw) [4]uint64 {
		return [4]uint64{
			math.Float64bits(r.T), math.Float64bits(r.X),
			math.Float64bits(r.Y), math.Float64bits(r.S),
		}
	}
	ka := make([][4]uint64, len(a))
	kb := make([][4]uint64, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	less := func(s [][4]uint64) func(i, j int) bool {
		return func(i, j int) bool {
			for k := 0; k < 4; k++ {
				if s[i][k] != s[j][k] {
					return s[i][k] < s[j][k]
				}
			}
			return false
		}
	}
	sort.Slice(ka, less(ka))
	sort.Slice(kb, less(kb))
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// PrintColscan renders the benchmark result as a table.
func PrintColscan(w io.Writer, res *ColscanResult) {
	fmt.Fprintln(w, "# PR-8: columnar checkpoint blocks vs row replay (cold analytical scans)")
	fmt.Fprintf(w, "%d windows x %d tuples, checkpoint %d B, sidecar %d B (%d blocks)\n",
		res.Config.Windows, res.Config.TuplesPerWindow, res.CheckpointBytes, res.SidecarBytes, res.BlocksWritten)
	fmt.Fprintf(w, "%-32s %12.3f\n", "row cover build (ms)", res.RowCoverBuildMs)
	fmt.Fprintf(w, "%-32s %12.3f\n", "columnar cover build (ms)", res.ColCoverBuildMs)
	fmt.Fprintf(w, "%-32s %12.2fx\n", "cover speedup", res.CoverSpeedup)
	fmt.Fprintf(w, "%-32s %12.3f\n", "row heatmap p50 (ms)", res.RowHeatmapP50Ms)
	fmt.Fprintf(w, "%-32s %12.3f\n", "row heatmap p99 (ms)", res.RowHeatmapP99Ms)
	fmt.Fprintf(w, "%-32s %12.3f\n", "columnar heatmap p50 (ms)", res.ColHeatmapP50Ms)
	fmt.Fprintf(w, "%-32s %12.3f\n", "columnar heatmap p99 (ms)", res.ColHeatmapP99Ms)
	fmt.Fprintf(w, "%-32s %12.2fx\n", "heatmap speedup (p50)", res.HeatmapSpeedup)
	fmt.Fprintf(w, "%-32s %12.3f\n", "row region scan p50 (ms)", res.RowRegionScanP50Ms)
	fmt.Fprintf(w, "%-32s %12.3f\n", "columnar region scan p50 (ms)", res.ColRegionScanP50Ms)
	fmt.Fprintf(w, "%-32s %12d\n", "columnar bytes read", res.ColBytesRead)
	fmt.Fprintf(w, "%-32s %12d\n", "row bytes read", res.RowBytesRead)
	fmt.Fprintf(w, "%-32s %12d\n", "blocks scanned", res.BlocksScanned)
	fmt.Fprintf(w, "%-32s %12d\n", "blocks pruned", res.BlocksPruned)
	fmt.Fprintf(w, "%-32s %12d / %d\n", "mmap / pread reads", res.MmapReads, res.ReadAtReads)
	fmt.Fprintf(w, "%-32s %12v\n", "answers equivalent", res.Equivalent)
}
