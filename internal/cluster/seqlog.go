package cluster

import (
	"repro/internal/tuple"
	"repro/internal/wire"
)

// seqLog is one bounded replication log: the newest tuples — at most
// limit — of a stream whose first retained tuple has sequence start. A
// primary keeps one per pollutant and a mirror keeps one as its tail;
// both serve catch-up and shard-transfer chunks from it.
//
// Storage is a ring buffer that grows by doubling up to limit and then
// overwrites its oldest tuples, so append costs O(batch) amortized and
// never copies the retained log once the log is full. Not safe for
// concurrent use; the owner's mutex guards it.
type seqLog struct {
	limit int
	start uint64      // sequence of the oldest retained tuple
	buf   []tuple.Raw // ring storage, len(buf) <= limit
	head  int         // index in buf of the oldest retained tuple
	n     int         // retained tuples
}

func newSeqLog(limit int) seqLog { return seqLog{limit: limit} }

// next returns the sequence the next appended tuple will take.
func (l *seqLog) next() uint64 { return l.start + uint64(l.n) }

// reset empties the log and restarts it at sequence from (a mirror's
// snapshot reset).
func (l *seqLog) reset(from uint64) {
	l.start, l.head, l.n = from, 0, 0
}

// append adds committed tuples at next(), evicting the oldest ones past
// the cap.
func (l *seqLog) append(tuples []tuple.Raw) {
	if len(tuples) >= l.limit {
		// The batch alone fills the log: keep its newest limit tuples.
		drop := len(tuples) - l.limit
		l.start += uint64(l.n + drop)
		if len(l.buf) < l.limit {
			l.buf = make([]tuple.Raw, l.limit)
		}
		copy(l.buf, tuples[drop:])
		l.head, l.n = 0, l.limit
		return
	}
	if need := l.n + len(tuples); need > len(l.buf) && len(l.buf) < l.limit {
		l.grow(need)
	}
	if over := l.n + len(tuples) - len(l.buf); over > 0 {
		l.head = (l.head + over) % len(l.buf)
		l.n -= over
		l.start += uint64(over)
	}
	tail := (l.head + l.n) % len(l.buf)
	k := copy(l.buf[tail:], tuples)
	copy(l.buf, tuples[k:])
	l.n += len(tuples)
}

// grow reallocates the ring to hold at least need tuples (doubling,
// capped at limit), unwrapping the retained tuples to the front.
func (l *seqLog) grow(need int) {
	buf := make([]tuple.Raw, min(max(2*len(l.buf), need), l.limit))
	l.copyOut(buf[:l.n], l.start)
	l.buf, l.head = buf, 0
}

// read copies the retained tuples of sequence range [from, to) into a
// new slice (nil when empty). Caller guarantees start <= from <= to <=
// next().
func (l *seqLog) read(from, to uint64) []tuple.Raw {
	if from == to {
		return nil
	}
	out := make([]tuple.Raw, to-from)
	l.copyOut(out, from)
	return out
}

// copyOut fills dst with the retained tuples starting at sequence from.
func (l *seqLog) copyOut(dst []tuple.Raw, from uint64) {
	if len(dst) == 0 {
		return
	}
	i := (l.head + int(from-l.start)) % len(l.buf)
	k := copy(dst, l.buf[i:])
	copy(dst[k:], l.buf)
}

// snapshot returns the whole retained log and the sequence of its
// first tuple.
func (l *seqLog) snapshot() (from uint64, tuples []tuple.Raw) {
	return l.start, l.read(l.start, l.next())
}

// chunk answers "I have seq have": a suffix chunk from have when the
// log still covers it, or a snapshot reset (replay from start after
// dropping state) when have is behind the log start or ahead of its
// end (the log's owner restarted). Chunks hold at most maxCatchupChunk
// tuples; Done marks the one that reaches next().
func (l *seqLog) chunk(have uint64) wire.ReplicaCatchupResponse {
	next := l.next()
	if have == next {
		return wire.ReplicaCatchupResponse{From: next, Done: true}
	}
	resp := wire.ReplicaCatchupResponse{From: have}
	if have > next || have < l.start {
		resp.Snapshot = true
		resp.From = l.start
	}
	end := min(next, resp.From+uint64(maxCatchupChunk))
	resp.Tuples = l.read(resp.From, end)
	resp.Done = end == next
	return resp
}
