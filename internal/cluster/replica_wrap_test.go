package cluster_test

// Replication past the log cap: the netsim R=2 cluster with every
// replication log (primary and mirror tail) capped at logCap tuples,
// loaded in small routed uploads so each log wraps several times.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const logCap = 64

// newCappedFixture is newReplicatedFixture with every node's
// replication logs capped at logCap tuples.
func newCappedFixture(t *testing.T) *fixture {
	t.Helper()
	f := newReplicatedFixture(t)
	for _, n := range f.nodes {
		cluster.SetLogCap(n, logCap)
	}
	return f
}

// windowLattice lays a lattice of the given spacing, shifted by off,
// inside window w.
func windowLattice(w int, step, off float64) tuple.Batch {
	var b tuple.Batch
	i := 0
	for x := -1900.0 + off; x <= 1900; x += step {
		for y := -1900.0 + off; y <= 1900; y += step {
			t := float64(w)*windowLen + 100 + float64(i%330)*10
			b = append(b, tuple.Raw{T: t, X: x, Y: y, S: fieldVal(x, y)})
			i++
		}
	}
	return b
}

// loadInPieces routes data through node 0 in uploads of n tuples, so
// every origin's log takes many small appends.
func (f *fixture) loadInPieces(t *testing.T, data tuple.Batch, n int) {
	t.Helper()
	for i := 0; i < len(data); i += n {
		f.load(t, data[i:min(i+n, len(data))])
	}
}

// ownedBy filters data to the tuples origin owns, in order — origin's
// commit stream for data routed through the cluster.
func (f *fixture) ownedBy(origin int, data tuple.Batch) tuple.Batch {
	var out tuple.Batch
	for _, r := range data {
		if f.ring.Owner(tuple.CO2, r.Pos()) == origin {
			out = append(out, r)
		}
	}
	return out
}

// transfer asks node `to` for chunk `have` of origin's CO2 log over the
// wire codec.
func (f *fixture) transfer(t *testing.T, to, origin int, have uint64) wire.ReplicaCatchupResponse {
	t.Helper()
	resp, err := (&nodeTransport{f: f, to: to}).Exchange(wire.ShardTransfer{Origin: uint16(origin), Pollutant: tuple.CO2, Have: have})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := resp.(wire.ReplicaCatchupResponse)
	if !ok {
		t.Fatalf("node %d: transfer of node %d's log answered %#v", to, origin, resp)
	}
	return cr
}

// TestReplicaSnapshotResetPastLogStart: a replica cut off while its
// origins commit more than a full log each falls behind the log start;
// the next frame's catch-up must be a snapshot reset, after which the
// replica answers byte-equal for the window the retained log covers.
func TestReplicaSnapshotResetPastLogStart(t *testing.T) {
	f := newCappedFixture(t)
	wave1 := makeData()
	f.loadInPieces(t, wave1, 40)
	waitConverged(t, f, sampleRequests(wave1))

	const cut = 2
	f.dead[cut].Store(true)
	var wave2 tuple.Batch
	for _, r := range windowLattice(0, 100, 50) {
		if f.ring.Owner(tuple.CO2, r.Pos()) != cut {
			wave2 = append(wave2, r)
		}
	}
	backed := 0
	for o := 0; o < 3; o++ {
		if o == cut {
			continue
		}
		for _, p := range f.ring.ReplicaPeers(o, tuple.CO2) {
			if p != cut {
				continue
			}
			backed++
			if n := len(f.ownedBy(o, wave2)); n <= logCap {
				t.Fatalf("origin %d commits %d tuples while node %d is cut, want more than the %d-tuple log", o, n, cut, logCap)
			}
		}
	}
	if backed == 0 {
		t.Skip("the cut node backs no live primary — ring layout changed")
	}
	f.loadInPieces(t, wave2, 100)
	f.dead[cut].Store(false)

	// A small upload into window 1 — fewer than logCap tuples per
	// origin, so the retained logs hold all of window 1 — reaches the
	// cut node as a gapped frame.
	wave3 := windowLattice(1, 400, 0)
	for o := 0; o < 3; o++ {
		if n := len(f.ownedBy(o, wave3)); n == 0 || n >= logCap {
			t.Fatalf("origin %d owns %d window-1 tuples, want 1..%d", o, n, logCap-1)
		}
	}
	f.load(t, wave3)
	var samples []query.Request
	viaCut := 0
	for i := 0; i < len(wave3); i += 3 {
		r := wave3[i]
		samples = append(samples, query.Request{T: windowLen + queryT, X: r.X, Y: r.Y, Pollutant: tuple.CO2})
		k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: f.ring.CellOf(r.Pos())}
		if reps := f.ring.ReplicasFor(k); reps[1] == cut {
			viaCut++
		}
	}
	if viaCut == 0 {
		t.Fatal("no window-1 sample is mirrored on the cut node — broaden the samples")
	}
	waitConverged(t, f, samples)
	rs, _ := f.nodes[cut].ReplicationStats()
	if rs.Snapshots == 0 {
		t.Fatalf("node %d healed without a snapshot reset: %+v", cut, rs)
	}
}

// TestReplicaWrappedLogTransferAndReplay: a mirror whose log tail has
// wrapped serves ShardTransfer chunks identical to its origin's own log
// — the retained suffix in commit order — and replayMirror applies that
// suffix, filtered to the gained shards, in sequence order.
func TestReplicaWrappedLogTransferAndReplay(t *testing.T) {
	f := newCappedFixture(t)
	data := append(makeData(), windowLattice(0, 100, 50)...)
	f.loadInPieces(t, data, 100)
	waitConverged(t, f, sampleRequests(data))

	suffixes := make([]tuple.Batch, 3)
	for o := 0; o < 3; o++ {
		stream := f.ownedBy(o, data)
		if len(stream) <= 2*logCap {
			t.Fatalf("origin %d committed %d tuples, want the log to wrap", o, len(stream))
		}
		start := uint64(len(stream) - logCap)
		suffixes[o] = stream[start:]
		own := f.transfer(t, o, o, 0)
		if !own.Snapshot || !own.Done || own.From != start || !reflect.DeepEqual(own.Tuples, []tuple.Raw(suffixes[o])) {
			t.Fatalf("origin %d log: snapshot=%v done=%v from %d (%d tuples), want the last %d committed from %d",
				o, own.Snapshot, own.Done, own.From, len(own.Tuples), logCap, start)
		}
		for _, r := range f.ring.ReplicaPeers(o, tuple.CO2) {
			for have := start; have <= start+logCap; have++ {
				got, want := f.transfer(t, r, o, have), f.transfer(t, o, o, have)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("node %d's mirror log of %d at have=%d: %+v, origin serves %+v", r, o, have, got, want)
				}
			}
		}
	}

	// Replay one origin's wrapped mirror logs as if it died and its
	// replicas took over its shards. Replays commit to the replicas' own
	// logs, so stop after the first origin that moves any tuple: later
	// origins' streams would no longer match the data.
	replayed := 0
	for o := 0; o < 3 && replayed == 0; o++ {
		desc, err := f.ring.TombstoneDesc(o)
		if err != nil {
			t.Fatal(err)
		}
		next, err := cluster.NewRing(desc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range f.ring.ReplicaPeers(o, tuple.CO2) {
			var gained []tuple.Raw
			for _, tp := range suffixes[o] {
				k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: next.CellOf(tp.Pos())}
				if next.OwnerKey(k) == r && f.ring.OwnerKey(k) != r {
					gained = append(gained, tp)
				}
			}
			before := f.transfer(t, r, r, 1<<62) // a snapshot: r's whole log
			mark := before.From + uint64(len(before.Tuples))
			if err := cluster.ReplayMirror(context.Background(), f.nodes[r], f.ring, next, o, tuple.CO2); err != nil {
				t.Fatalf("node %d replaying its mirror of %d: %v", r, o, err)
			}
			// r committed exactly the gained tuples, in o's sequence order.
			after := f.transfer(t, r, r, mark)
			if after.Snapshot || !reflect.DeepEqual(after.Tuples, gained) {
				t.Fatalf("node %d replayed %d tuples of %d's log (snapshot=%v), want the %d gained in order",
					r, len(after.Tuples), o, after.Snapshot, len(gained))
			}
			replayed += len(gained)
		}
	}
	if replayed == 0 {
		t.Fatal("no replica gained shards from a wrapped mirror log — ring layout changed")
	}
}
