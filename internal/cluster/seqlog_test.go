package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// seqTuples returns the stream tuples of sequence range [from, to):
// tuple i carries T = i, so any misplaced tuple shows in a comparison.
func seqTuples(from, to uint64) []tuple.Raw {
	if from == to {
		return nil
	}
	out := make([]tuple.Raw, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, tuple.Raw{T: float64(i), S: 1})
	}
	return out
}

// TestSeqLogWrapsAndServesExactSuffixes drives a small-cap log through
// many wraps with batch sizes on both sides of the cap, and after every
// append checks the retained window, the snapshot, and every chunk
// read: the exact suffix for each have in [start, next], a snapshot
// reset for have outside it, and chunks split at maxCatchupChunk.
func TestSeqLogWrapsAndServesExactSuffixes(t *testing.T) {
	defer func(old int) { maxCatchupChunk = old }(maxCatchupChunk)
	maxCatchupChunk = 3
	const limit = 7
	rng := rand.New(rand.NewSource(1))
	lg := newSeqLog(limit)
	var total uint64
	for step := 0; step < 300; step++ {
		size := rng.Intn(2*limit + 2) // empty, partial, exactly limit, past limit
		lg.append(seqTuples(total, total+uint64(size)))
		total += uint64(size)

		start := total - uint64(min(int(total), limit))
		if lg.next() != total || lg.start != start || lg.n != int(total-start) {
			t.Fatalf("step %d: start %d next %d n %d, want start %d next %d", step, lg.start, lg.next(), lg.n, start, total)
		}
		if from, got := lg.snapshot(); from != start || !reflect.DeepEqual(got, seqTuples(start, total)) {
			t.Fatalf("step %d: snapshot from %d = %v, want from %d = %v", step, from, got, start, seqTuples(start, total))
		}
		for have := start; have <= total; have++ {
			cr := lg.chunk(have)
			end := min(total, have+uint64(maxCatchupChunk))
			if cr.Snapshot || cr.From != have || cr.Done != (end == total) || !reflect.DeepEqual(cr.Tuples, seqTuples(have, end)) {
				t.Fatalf("step %d: chunk(%d) = %+v, want suffix [%d,%d) done=%v", step, have, cr, have, end, end == total)
			}
			// Following the chunks to Done reassembles the whole suffix.
			var got []tuple.Raw
			for h := have; ; {
				c := lg.chunk(h)
				got = append(got, c.Tuples...)
				h = c.From + uint64(len(c.Tuples))
				if c.Done {
					break
				}
			}
			if !reflect.DeepEqual(got, seqTuples(have, total)) {
				t.Fatalf("step %d: chunks from %d reassemble %v, want %v", step, have, got, seqTuples(have, total))
			}
		}
		outside := []uint64{total + 1, total + 1000}
		if start > 0 {
			outside = append(outside, 0, start-1)
		}
		for _, have := range outside {
			cr := lg.chunk(have)
			end := min(total, start+uint64(maxCatchupChunk))
			if !cr.Snapshot || cr.From != start || cr.Done != (end == total) || !reflect.DeepEqual(cr.Tuples, seqTuples(start, end)) {
				t.Fatalf("step %d: chunk(%d) = %+v, want snapshot [%d,%d)", step, have, cr, start, end)
			}
		}
	}
	if total < 20*limit {
		t.Fatalf("only %d tuples appended; the log never wrapped many times", total)
	}

	// A snapshot reset restarts the sequence space; the ring keeps
	// working from there.
	lg.reset(5000)
	if cr := lg.chunk(5000); !cr.Done || cr.From != 5000 || len(cr.Tuples) != 0 {
		t.Fatalf("chunk after reset = %+v, want empty done at 5000", cr)
	}
	lg.append(seqTuples(5000, 5010))
	if from, got := lg.snapshot(); from != 5003 || !reflect.DeepEqual(got, seqTuples(5003, 5010)) {
		t.Fatalf("snapshot after reset = %d %v, want [5003,5010)", from, got)
	}
}

// TestSeqLogGrowsToCap checks the ring allocates only as the log fills,
// never past the cap.
func TestSeqLogGrowsToCap(t *testing.T) {
	lg := newSeqLog(100)
	var total uint64
	for i := 0; i < 40; i++ {
		lg.append(seqTuples(total, total+3))
		total += 3
		if len(lg.buf) > 100 || len(lg.buf) < lg.n {
			t.Fatalf("after %d tuples: ring of %d holding %d", total, len(lg.buf), lg.n)
		}
	}
	if from, got := lg.snapshot(); from != total-100 || !reflect.DeepEqual(got, seqTuples(total-100, total)) {
		t.Fatalf("snapshot = %d %v, want the last 100 tuples", from, got)
	}
}
