package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/tuple"
)

func pipeBatch(t0 float64, n int) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{T: t0 + float64(i), X: 1, Y: 2, S: 400}
	}
	return b
}

// pipeSink records sink calls per pollutant.
type pipeSink struct {
	mu      sync.Mutex
	calls   int
	tuples  int
	byPol   map[tuple.Pollutant]int
	gate    chan struct{} // when non-nil, each call waits here
	entered chan struct{} // when non-nil, signals a call began
	err     error
}

func (c *pipeSink) sink(p tuple.Pollutant, b tuple.Batch) error {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.tuples += len(b)
	if c.byPol == nil {
		c.byPol = make(map[tuple.Pollutant]int)
	}
	c.byPol[p] += len(b)
	return c.err
}

func (c *pipeSink) snapshot() (calls, tuples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.tuples
}

func TestPipelineSubmitAppliesAndAcks(t *testing.T) {
	cs := &pipeSink{}
	p, err := NewPipeline(cs.sink, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Submit(context.Background(), tuple.CO2, pipeBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	calls, tuples := cs.snapshot()
	if calls != 1 || tuples != 5 {
		t.Fatalf("sink saw %d calls / %d tuples, want 1 / 5", calls, tuples)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Tuples != 5 || st.Appends != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestPipelineCoalesces blocks the worker inside the first append and
// piles up small uploads behind it: the next sink call must carry them
// all at once.
func TestPipelineCoalesces(t *testing.T) {
	cs := &pipeSink{gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	p, err := NewPipeline(cs.sink, PipelineConfig{QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Submit(ctx, tuple.CO2, pipeBatch(0, 2)); err != nil {
			t.Errorf("first submit: %v", err)
		}
	}()
	<-cs.entered // the worker is inside the first append
	const piled = 6
	for i := 0; i < piled; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Submit(ctx, tuple.CO2, pipeBatch(float64(100+10*i), 2)); err != nil {
				t.Errorf("piled submit: %v", err)
			}
		}()
	}
	// Wait until every piled upload is queued, then release the worker.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Queued < piled+1 {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never queued: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(cs.gate)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	calls, tuples := cs.snapshot()
	if tuples != (piled+1)*2 {
		t.Fatalf("sink saw %d tuples, want %d", tuples, (piled+1)*2)
	}
	if calls != 2 {
		t.Fatalf("sink saw %d calls, want 2 (first append + one coalesced group)", calls)
	}
	if st := p.Stats(); st.Coalesced != piled-1 {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, piled-1)
	}
}

// TestPipelineTrySubmitSaturation fills the queue while the worker is
// blocked and checks TrySubmit sheds with ErrSaturated.
func TestPipelineTrySubmitSaturation(t *testing.T) {
	cs := &pipeSink{gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	p, err := NewPipeline(cs.sink, PipelineConfig{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		// First occupies the worker, second fills the depth-1 queue.
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Submit(ctx, tuple.CO2, pipeBatch(float64(10*i), 1)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}()
		if i == 0 {
			<-cs.entered
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.TrySubmit(ctx, tuple.CO2, pipeBatch(100, 1)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit on full queue = %v, want ErrSaturated", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	close(cs.gate)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineValidatesOnSubmit(t *testing.T) {
	cs := &pipeSink{}
	p, err := NewPipeline(cs.sink, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bad := tuple.Batch{{T: -1, S: 400}}
	if err := p.Submit(context.Background(), tuple.CO2, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if calls, _ := cs.snapshot(); calls != 0 {
		t.Fatalf("invalid batch reached the sink (%d calls)", calls)
	}
}

func TestPipelineSinkErrorReachesSubmitter(t *testing.T) {
	boom := errors.New("boom")
	cs := &pipeSink{err: boom}
	p, err := NewPipeline(cs.sink, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Submit(context.Background(), tuple.CO2, pipeBatch(0, 1)); !errors.Is(err, boom) {
		t.Fatalf("Submit = %v, want the sink error", err)
	}
	if st := p.Stats(); st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}

	// A coalesced append: hold the worker inside one failing sink call
	// while uploads pile up behind it; the next call carries them all,
	// and its one error must reach every one of them.
	cs.gate = make(chan struct{})
	cs.entered = make(chan struct{}, 16)
	ctx := context.Background()
	first := make(chan error, 1)
	go func() { first <- p.Submit(ctx, tuple.CO2, pipeBatch(10, 1)) }()
	<-cs.entered
	const piled = 5
	errs := make(chan error, piled)
	for i := 0; i < piled; i++ {
		i := i
		go func() { errs <- p.Submit(ctx, tuple.CO2, pipeBatch(float64(100+10*i), 2)) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Queued < piled+1 {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never queued: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(cs.gate)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("gated Submit = %v, want the sink error", err)
	}
	for i := 0; i < piled; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("coalesced Submit = %v, want the sink error", err)
		}
	}
	st := p.Stats()
	if calls, _ := cs.snapshot(); calls != 3 || st.Errors != 3 || st.Coalesced != piled-1 {
		t.Fatalf("sink calls = %d, Stats = %+v; want 3 calls, 3 errors, %d coalesced", calls, st, piled-1)
	}
}

// TestPipelineCloseDrains checks queued uploads are applied (and their
// submitters acknowledged) before Close returns, and that submits after
// Close fail.
func TestPipelineCloseDrains(t *testing.T) {
	cs := &pipeSink{}
	p, err := NewPipeline(cs.sink, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := p.Submit(ctx, tuple.CO2, pipeBatch(float64(10*i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, tuples := cs.snapshot(); tuples != 8 {
		t.Fatalf("sink saw %d tuples, want 8", tuples)
	}
	if err := p.Submit(ctx, tuple.CO2, pipeBatch(100, 1)); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPipelineClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}

// TestPipelinePerPollutantIsolation checks pollutants get independent
// queues and the sink sees each pollutant's tuples under its own key.
func TestPipelinePerPollutantIsolation(t *testing.T) {
	cs := &pipeSink{}
	p, err := NewPipeline(cs.sink, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		pol := pol
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := p.Submit(ctx, pol, pipeBatch(float64(10*i), 3)); err != nil {
					t.Errorf("%v submit: %v", pol, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.CO, tuple.PM} {
		if cs.byPol[pol] != 15 {
			t.Errorf("%v: sink saw %d tuples, want 15", pol, cs.byPol[pol])
		}
	}
}
