package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// simCluster is the in-process replicated cluster the failover and
// rebalance benchmarks run on: real engines, real ring, the real binary
// codec on every hop. Fault injection stands in for the network: a
// per-node kill switch and delay (a dead or slow peer), and a stall in
// front of membership frames so a join has a measurable window. The
// member set can grow while the cluster serves (addNode).
type simCluster struct {
	seed    int64
	stallNS atomic.Int64

	mu      sync.Mutex
	addrs   []string
	members []*simMember
}

// simMember is one node of a simCluster and its injected faults.
type simMember struct {
	engine  *server.Engine
	node    *cluster.Node
	dead    atomic.Bool
	delayNS atomic.Int64
}

// simTransport carries one exchange to member to, after the faults
// injected in front of it.
type simTransport struct {
	c  *simCluster
	to int
}

func (t *simTransport) Exchange(req wire.Message) (wire.Message, error) {
	m := t.c.member(t.to)
	if d := m.delayNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	switch req.(type) {
	case wire.JoinRequest, wire.RingUpdate, wire.ShardTransfer, wire.Promote:
		if d := t.c.stallNS.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	if m.dead.Load() {
		return nil, fmt.Errorf("node %d is down", t.to)
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	resp := m.node.HandleMessage(decoded)
	respB, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

const (
	simWindowLen = 3600.0
	simQueryT    = 1800.0
)

var simRegion = geo.Rect{Min: geo.Point{X: -2000, Y: -2000}, Max: geo.Point{X: 2000, Y: 2000}}

func newSimEngine(seed int64) (*server.Engine, error) {
	st := store.MustOpenMemory(simWindowLen)
	return server.NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: seed}})
}

// newSimCluster boots a cluster of nodes members over a cellsPerSide^2
// shard grid, with replication factor replicas, at membership epoch
// epoch.
func newSimCluster(nodes, replicas, cellsPerSide int, epoch uint64, seed int64) (*simCluster, error) {
	cells, err := cluster.Cells(simRegion, cellsPerSide, 1)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:8081", i)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: replicas, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	c := &simCluster{addrs: addrs, seed: seed}
	for i := 0; i < nodes; i++ {
		if err := c.addNode(ring, i); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// addNode builds an engine+node pair serving ring as member self. A
// joiner's address must already be in c.addrs.
func (c *simCluster) addNode(ring *cluster.Ring, self int) error {
	engine, err := newSimEngine(c.seed)
	if err != nil {
		return err
	}
	mirror := func() cluster.Handler {
		e, err := newSimEngine(c.seed)
		if err != nil {
			panic(fmt.Sprintf("bench: mirror engine: %v", err))
		}
		return e
	}
	// Explicit transports cover the boot-time members; Dial covers
	// nodes that join later.
	transports := make([]cluster.Transport, ring.Nodes())
	for j := range transports {
		if j != self {
			transports[j] = &simTransport{c: c, to: j}
		}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring:        ring,
		Self:        self,
		Local:       engine,
		Transports:  transports,
		Dial:        c.dial,
		Default:     tuple.CO2,
		Replication: cluster.ReplicationConfig{NewMirror: mirror},
	})
	if err != nil {
		engine.Close()
		return err
	}
	c.mu.Lock()
	c.members = append(c.members, &simMember{engine: engine, node: node})
	c.mu.Unlock()
	return nil
}

// close shuts every member down. It must not hold c.mu while nodes
// close: a closing node drains replication streams whose exchanges look
// their target member up under c.mu.
func (c *simCluster) close() {
	c.mu.Lock()
	members := append([]*simMember(nil), c.members...)
	c.mu.Unlock()
	for _, m := range members {
		m.node.Close()
	}
	for _, m := range members {
		m.engine.Close()
	}
}

func (c *simCluster) member(i int) *simMember {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[i]
}

// dial resolves a member address to its transport, for the nodes (a
// cluster.Dialer) and, through clientDialer, for the sharded client.
func (c *simCluster) dial(addr string) (cluster.Transport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range c.addrs {
		if a == addr {
			return &simTransport{c: c, to: i}, nil
		}
	}
	return nil, fmt.Errorf("unknown address %q", addr)
}

func (c *simCluster) clientDialer() client.Dialer {
	return func(addr string) (client.Transport, error) { return c.dial(addr) }
}

// simData lays the deterministic lattice from the cluster tests over
// the region: value is a linear field of position, timestamps spread
// through window 0, so every answer is predictable and stable.
func simData() tuple.Batch {
	var b tuple.Batch
	i := 0
	for x := -1900.0; x <= 1900; x += 200 {
		for y := -1900.0; y <= 1900; y += 200 {
			t := 100 + float64(i%330)*10
			b = append(b, tuple.Raw{T: t, X: x, Y: y, S: 400 + 0.01*x + 0.02*y})
			i++
		}
	}
	return b
}

// load ingests simData through member 0, then waits until the replicas
// of every sampled point (every 7th tuple, queried at simQueryT) have
// converged. It returns the data and the samples.
func (c *simCluster) load(timeout time.Duration) (tuple.Batch, []query.Request, error) {
	data := simData()
	resp := c.member(0).node.HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	if ir, ok := resp.(wire.IngestResponse); !ok || int(ir.Ingested) != len(data) {
		return nil, nil, fmt.Errorf("seed ingest failed: %#v", resp)
	}
	var samples []query.Request
	for i := 0; i < len(data); i += 7 {
		samples = append(samples, query.Request{T: simQueryT, X: data[i].X, Y: data[i].Y, Pollutant: tuple.CO2})
	}
	if err := c.waitConverged(samples, timeout); err != nil {
		return nil, nil, err
	}
	return data, samples, nil
}

// waitConverged polls until every sampled shard's replicas answer
// exactly the owner engine's value under member 0's ring, i.e. the
// replication streams (and any catch-up pulls) have fully drained.
func (c *simCluster) waitConverged(reqs []query.Request, timeout time.Duration) error {
	//ctxcheck:allow the benchmark run is its own root; the poll is deadline-bounded
	ctx := context.Background()
	ring := c.member(0).node.Ring()
	deadline := time.Now().Add(timeout)
	for {
		lag := ""
	check:
		for _, req := range reqs {
			pt := geo.Point{X: req.X, Y: req.Y}
			owner := ring.Owner(tuple.CO2, pt)
			want, err := c.member(owner).engine.Query(ctx, req)
			if err != nil {
				return fmt.Errorf("owner %d query: %w", owner, err)
			}
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: ring.CellOf(pt)}
			for _, rep := range ring.ReplicasFor(k)[1:] {
				tr := &simTransport{c: c, to: rep}
				resp, err := tr.Exchange(wire.ReplicaRead{Origin: uint16(owner),
					Inner: wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}})
				if err != nil {
					return err
				}
				if er, isErr := resp.(wire.ErrorResponse); isErr && strings.HasPrefix(er.Msg, "replica:") {
					lag = fmt.Sprintf("replica %d has no usable mirror of %d yet", rep, owner)
					break check
				}
				qr, isQ := resp.(wire.QueryResponse)
				if !isQ || qr.Value != want {
					lag = fmt.Sprintf("replica %d of %d answers %#v, owner answers %v", rep, owner, resp, want)
					break check
				}
			}
		}
		if lag == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never converged: %s", lag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
