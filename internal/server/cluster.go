package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/heatmap"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ErrNotRoutable is returned for request features that cannot cross the
// cluster — today, the radius/processor query options, which evaluate
// raw windows only the shard owner holds. The HTTP layer maps it to 400.
var ErrNotRoutable = errors.New("server: request options are not routable; send it to the shard owner")

// NewClusterAPI builds the HTTP API for one member of a sharded
// cluster: query, batch, ingest, model, and heatmap endpoints route
// through the node (answering owned shards locally and the rest via the
// ring), and GET /v1/cluster serves the shard ring, the per-shard
// ownership table, and the routing counters.
func NewClusterAPI(engine *Engine, node *cluster.Node) *API {
	a := NewAPI(engine)
	a.node = node
	a.mux.HandleFunc("/v1/cluster", a.handleCluster)
	a.mux.HandleFunc("/v1/cluster/join", a.handleClusterJoin)
	a.mux.HandleFunc("/v1/cluster/drain", a.handleClusterDrain)
	return a
}

// Node returns the cluster node the API routes through (nil when the
// deployment is single-node).
func (a *API) Node() *cluster.Node { return a.node }

// RoutableOptions reports whether o can cross the cluster: only the
// model-cover path travels (Concurrency is applied wherever the batch
// executes, so it never blocks routing). The facade and the HTTP layer
// share this predicate so every surface routes — or refuses — the same
// requests.
func RoutableOptions(o query.Options) bool {
	return (o.Kind == "" || o.Kind == query.KindCover) && o.Radius == 0
}

// queryValue answers one point query, routing through the cluster node
// when one is configured. Non-default processor options only work on
// shards this node owns: the raw window lives with the owner.
func (a *API) queryValue(ctx context.Context, req query.Request, o query.Options) (float64, error) {
	if a.node == nil || a.ownsShard(req.Pollutant, req.X, req.Y) {
		return a.engine.QueryOpts(ctx, req, o)
	}
	if !RoutableOptions(o) {
		return 0, fmt.Errorf("%w: processor=%v radius=%v", ErrNotRoutable, o.Kind, o.Radius)
	}
	return a.node.Query(ctx, req)
}

// queryBatch answers a batch, routing slices to shard owners when
// clustered.
func (a *API) queryBatch(ctx context.Context, reqs []query.Request, o query.Options) ([]query.BatchResult, error) {
	if a.node == nil {
		return a.engine.QueryBatchOpts(ctx, reqs, o)
	}
	if !RoutableOptions(o) {
		if a.ownsBatch(reqs) {
			return a.engine.QueryBatchOpts(ctx, reqs, o)
		}
		return nil, fmt.Errorf("%w: processor=%v radius=%v", ErrNotRoutable, o.Kind, o.Radius)
	}
	return a.node.QueryBatch(ctx, reqs)
}

// heatmapGrid rasterizes a heatmap, scatter-gathering across the
// cluster when one is configured.
func (a *API) heatmapGrid(ctx context.Context, pol tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	if a.node == nil {
		return a.engine.Heatmap(ctx, pol, t, cols, rows)
	}
	return a.node.Heatmap(ctx, pol, t, cols, rows)
}

// modelResponse returns the (possibly cluster-merged) model cover.
func (a *API) modelResponse(ctx context.Context, pol tuple.Pollutant, t float64) (wire.ModelResponse, error) {
	if a.node == nil {
		cv, err := a.engine.CoverAt(ctx, pol, t)
		if err != nil {
			return wire.ModelResponse{}, err
		}
		return wire.ModelResponseFromCover(cv)
	}
	return a.node.Model(ctx, pol, t)
}

// ingestBatch applies an upload, splitting it across shard owners when
// clustered. Both paths shed saturation (ErrSaturated) instead of
// blocking the HTTP connection.
func (a *API) ingestBatch(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	if a.node == nil {
		return a.engine.TryIngest(ctx, pol, b)
	}
	return a.node.Ingest(ctx, pol, b)
}

// ownsShard reports whether this node owns pollutant pol at (x, y).
func (a *API) ownsShard(pol tuple.Pollutant, x, y float64) bool {
	ring := a.node.Ring()
	return ring.Owner(pol, pointOf(x, y)) == a.node.Self()
}

// ownsBatch reports whether every request of a batch lands on this node.
func (a *API) ownsBatch(reqs []query.Request) bool {
	for _, r := range reqs {
		if !a.ownsShard(r.Pollutant, r.X, r.Y) {
			return false
		}
	}
	return true
}

// clusterShards is the per-shard ownership table: pollutant -> node ID
// (as a string key, JSON objects key by string) -> owned cells.
type clusterShards map[string]map[string][]int

// clusterStatsJSON mirrors cluster.Stats on the wire.
type clusterStatsJSON struct {
	Local           int64 `json:"local"`
	Forwarded       int64 `json:"forwarded"`
	ForwardedIn     int64 `json:"forwardedIn"`
	Scatters        int64 `json:"scatters"`
	NotOwner        int64 `json:"notOwner"`
	Errors          int64 `json:"errors"`
	FailedOver      int64 `json:"failedOver"`
	Rehomed         int64 `json:"rehomed"`
	EpochMismatches int64 `json:"epochMismatches"`
}

// replicationStatsJSON mirrors cluster.ReplicationStats on the wire.
type replicationStatsJSON struct {
	Streamed     int64 `json:"streamed"`
	StreamDrops  int64 `json:"streamDrops"`
	StreamErrors int64 `json:"streamErrors"`
	GapNaks      int64 `json:"gapNaks"`
	Applied      int64 `json:"applied"`
	Gaps         int64 `json:"gaps"`
	Catchups     int64 `json:"catchups"`
	Snapshots    int64 `json:"snapshots"`
	MirrorReads  int64 `json:"mirrorReads"`
	Mirrors      int   `json:"mirrors"`
}

// clusterResponse is the GET /v1/cluster document. Ring is exactly the
// wire ring-exchange payload, so an HTTP client rebuilds the same
// cluster.Ring a TCP client gets from a RingRequest. Replication is
// present only on nodes of a replicated ring.
type clusterResponse struct {
	Self        int                   `json:"self"`
	Epoch       uint64                `json:"epoch"`
	Ring        wire.RingResponse     `json:"ring"`
	Shards      clusterShards         `json:"shards"`
	Routing     clusterStatsJSON      `json:"routing"`
	Replication *replicationStatsJSON `json:"replication,omitempty"`
}

// handleCluster serves GET /v1/cluster.
func (a *API) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	ring := a.node.Ring()
	shards := make(clusterShards, len(a.engine.Pollutants()))
	for _, pol := range a.engine.Pollutants() {
		perNode := make(map[string][]int, ring.Nodes())
		for n := 0; n < ring.Nodes(); n++ {
			if cells := ring.OwnedCells(n, pol); len(cells) > 0 {
				perNode[fmt.Sprint(n)] = cells
			}
		}
		shards[pol.String()] = perNode
	}
	st := a.node.Stats()
	resp := clusterResponse{
		Self:   a.node.Self(),
		Epoch:  ring.Epoch(),
		Ring:   ring.Wire(),
		Shards: shards,
		Routing: clusterStatsJSON{
			Local: st.Local, Forwarded: st.Forwarded, ForwardedIn: st.ForwardedIn,
			Scatters: st.Scatters, NotOwner: st.NotOwner, Errors: st.Errors,
			FailedOver: st.FailedOver, Rehomed: st.Rehomed,
			EpochMismatches: st.EpochMismatches,
		},
	}
	if rs, ok := a.node.ReplicationStats(); ok {
		resp.Replication = &replicationStatsJSON{
			Streamed: rs.Streamed, StreamDrops: rs.StreamDrops, StreamErrors: rs.StreamErrors,
			GapNaks: rs.GapNaks, Applied: rs.Applied, Gaps: rs.Gaps, Catchups: rs.Catchups,
			Snapshots: rs.Snapshots, MirrorReads: rs.MirrorReads, Mirrors: rs.Mirrors,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterJoin serves POST /v1/cluster/join {"addr": "host:port"}
// — the HTTP form of the wire JoinRequest announce. It returns the
// pending next-epoch ring that includes addr as its last member; the
// membership does not change until the joiner bootstraps its shards
// and broadcasts the commit (Platform.CompleteJoin on the joiner).
func (a *API) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var body struct {
		Addr string `json:"addr"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("join body needs addr"))
		return
	}
	switch resp := a.node.HandleMessage(wire.JoinRequest{Addr: body.Addr}).(type) {
	case wire.RingResponse:
		writeJSON(w, http.StatusOK, resp)
	case wire.ErrorResponse:
		writeError(w, http.StatusConflict, errors.New(resp.Msg))
	default:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("unexpected join reply %T", resp))
	}
}

// handleClusterDrain serves POST /v1/cluster/drain: it removes this
// node from the cluster — peers bootstrap its shards from the retained
// replication streams before the new epoch commits — and reports the
// committed epoch. The process keeps serving (reads and the final
// handoff pulls) until the operator stops it.
func (a *API) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	if err := a.node.Drain(r.Context()); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"drained": true,
		"epoch":   a.node.Ring().Epoch(),
	})
}
