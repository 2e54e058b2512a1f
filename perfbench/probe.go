package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The benchmark shares a few virtual CPUs of a host with other
// tenants, and the host's speed drifts. A fixed CPU loop alone took
// 7.5 ms per call in one stretch of seconds and 11 ms in the next, and
// a run of several minutes can sit in either state: ten runs of the
// same code spread their median query latency by 15-30%. So every run
// also times a host probe, fixed work that calls no code of this
// repository, and reports its end-to-end times scaled to a reference
// probe time. The probe runs at probe points: after each set-up and
// between load segments, with the load paused and the program's
// background work drained, so that it times the host and not the
// program. The raw times and the probe are printed beside them.
const (
	// probeRefMs is the reference probe time, about the median probe
	// of a 2-vCPU Intel Xeon VM with GOMAXPROCS=2.
	probeRefMs = 4.5
	// probeEvery is the load time between two probe points.
	probeEvery = 4 * time.Second
	// probeReps is how many probes run at each probe point.
	probeReps = 5
)

// hostProbe times fixed reference work: sorting and JSON-encoding a
// fixed slice on one goroutine, then the same on two goroutines at
// once, because the load keeps both CPUs busy.
type hostProbe struct {
	data []float64
	ms   []float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{data: make([]float64, 4096)}
	rng := rand.New(rand.NewSource(1))
	for i := range p.data {
		p.data[i] = rng.Float64()
	}
	return p
}

// work is the probe's unit of work.
func (p *hostProbe) work() {
	buf := make([]float64, len(p.data))
	for r := 0; r < 4; r++ {
		copy(buf, p.data)
		sort.Float64s(buf)
		json.Marshal(buf[:512])
	}
}

// point runs the probe probeReps times.
func (p *hostProbe) point() {
	for i := 0; i < probeReps; i++ {
		p.run()
	}
}

// run times the probe once and records it.
func (p *hostProbe) run() {
	t0 := time.Now()
	p.work()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()
	p.ms = append(p.ms, float64(time.Since(t0))/float64(time.Millisecond))
}

// scale turns a time measured in this run into the time on the
// reference host: the reference probe over the run's median probe.
func (p *hostProbe) scale() float64 {
	if len(p.ms) == 0 {
		return 1
	}
	return probeRefMs / median(p.ms)
}

// report prints the probe and the scale it gives, with names that
// start with prefix.
func (p *hostProbe) report(rep *report, prefix string) {
	rep.extraf("host."+prefix+"probe_ms", median(p.ms), "ms")
	rep.extraf("host."+prefix+"probes", float64(len(p.ms)), "count")
	rep.extraf("host."+prefix+"scale", p.scale(), "ratio")
}
