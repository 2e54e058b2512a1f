package cluster

import (
	"context"

	"repro/internal/tuple"
)

// SetLogCap lowers n's replication-log cap to limit tuples. Logs
// take the cap when they are created, so call it before n's first
// ingest.
func SetLogCap(n *Node, limit int) { n.repl.retain = limit }

// ReplayMirror runs n's promotion replay of its mirror log of origin's
// pol stream, as when origin's shards move from old to next.
func ReplayMirror(ctx context.Context, n *Node, old, next *Ring, origin int, pol tuple.Pollutant) error {
	return n.replayMirror(ctx, old, next, origin, pol)
}
