package main

import (
	"math"
	"math/rand"

	"repro"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

const (
	// fleetSize is the simulated bus fleet: 10x the paper's 4 buses,
	// split evenly over the two Lausanne routes.
	fleetSize = 40
	// windowSeconds is the modeling window H: one hour of stream time.
	windowSeconds = 3600.0
	// tuplesPerWindow is what the fleet reports in one window: 40 buses
	// every 60 s, less the simulated 1.5% dropout.
	tuplesPerWindow = 2364
	day             = 86400.0
	// uploadTuples is the size of one bus upload.
	uploadTuples = 32
	// routePoints is the length of a continuous (route) query.
	routePoints = 20
	// heatCells is the heatmap raster edge (the HTTP API's default).
	heatCells = 64
)

// fleetConfig is the Lausanne deployment with fleetSize vehicles spread
// evenly along the two routes of the default deployment.
func fleetConfig(seed int64, seconds float64) sim.Config {
	cfg := sim.DefaultLausanne(seed)
	routes := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	speeds := []float64{cfg.Vehicles[0].SpeedMPS, cfg.Vehicles[2].SpeedMPS}
	cfg.Vehicles = nil
	per := fleetSize / len(routes)
	for r, pl := range routes {
		for i := 0; i < per; i++ {
			cfg.Vehicles = append(cfg.Vehicles, sim.Vehicle{
				Route:       pl,
				SpeedMPS:    speeds[r],
				StartOffset: pl.Length() * float64(i) / float64(per),
			})
		}
	}
	cfg.Duration = seconds
	return cfg
}

// fleetData generates seconds of the fleet's CO2 stream, time sorted.
func fleetData(seed int64, seconds float64) (tuple.Batch, error) {
	return sim.Generate(fleetConfig(seed, seconds))
}

// region is where queries are placed: the routes' bounding box with a
// 200 m margin.
func region() geo.Rect { return sim.LausanneRegion(200) }

// randPoint draws a position uniformly over the query region.
func randPoint(rng *rand.Rand) (x, y float64) {
	r := region()
	return r.Min.X + rng.Float64()*(r.Max.X-r.Min.X), r.Min.Y + rng.Float64()*(r.Max.Y-r.Min.Y)
}

// randRoute draws a routePoints-point route: a straight walk from (x, y)
// in a random direction, 100 m and 30 s between points, starting at
// stream time t.
func randRoute(rng *rand.Rand, t, x, y float64) []repro.Request {
	a := rng.Float64() * 2 * math.Pi
	dx, dy := 100*math.Cos(a), 100*math.Sin(a)
	pts := make([]repro.Request, routePoints)
	for i := range pts {
		pts[i] = repro.Request{T: t + 30*float64(i), X: x + dx*float64(i), Y: y + dy*float64(i), Pollutant: repro.CO2}
	}
	return pts
}

// byWindow groups tuples by modeling window, preserving order.
func byWindow(b tuple.Batch) map[int]tuple.Batch {
	out := map[int]tuple.Batch{}
	for _, r := range b {
		c := tuple.WindowIndex(r.T, windowSeconds)
		out[c] = append(out[c], r)
	}
	return out
}

// chunks splits b into consecutive uploads of at most n tuples.
func chunks(b tuple.Batch, n int) []tuple.Batch {
	var out []tuple.Batch
	for len(b) > 0 {
		k := min(n, len(b))
		out = append(out, b[:k:k])
		b = b[k:]
	}
	return out
}
