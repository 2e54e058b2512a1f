package bench

import "testing"

// TestSimClusterBenches runs the failover and rebalance benchmarks at a
// small query count on the shared in-process cluster. The counted
// criteria must hold; the timing ones (hedged p99, join-window sample)
// are left to the command's smoke runs. Each run must also shut its
// cluster down, including while replication streams still target the
// killed node.
func TestSimClusterBenches(t *testing.T) {
	fcfg := DefaultFailoverConfig()
	fcfg.Queries = 32
	fo, err := RunFailover(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fo.ZeroErrorFailover || !fo.ByteEqualReplicas {
		t.Errorf("failover: zero-error %v, byte-equal %v (%d/%d failed, %d mismatches)",
			fo.ZeroErrorFailover, fo.ByteEqualReplicas, fo.FailedAfterKill, fo.QueriesAfterKill, fo.Mismatches)
	}

	rcfg := DefaultRebalanceConfig()
	rcfg.Queries = 32
	rb, err := RunRebalance(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.EpochAdvancedOnce || !rb.JoinerOwnsShards || !rb.AnswersPreserved {
		t.Errorf("rebalance: epoch once %v (%d -> %d), joiner shards %d, %d answers changed",
			rb.EpochAdvancedOnce, rb.EpochBefore, rb.EpochAfter, rb.JoinerShards, rb.PostMismatches)
	}
}
