package bench

import (
	"encoding/json"
	"testing"
)

// TestResultChecks pins the write-and-verify contract of the four
// closed-loop results: Check rejects the zero value (a run that measured
// nothing must not pass), and a passing result still passes after the
// JSON round trip the command performs on its written file.
func TestResultChecks(t *testing.T) {
	type checked interface{ Check() error }
	cases := []struct {
		name    string
		passing checked
		fresh   checked
	}{
		{"subs", &SubsResult{PushedBytes: 400, PolledBytes: 4000}, new(SubsResult)},
		{"colscan", &ColscanResult{Equivalent: true, BlocksScanned: 12, ColBytesRead: 9000}, new(ColscanResult)},
		{"failover", &FailoverResult{
			ZeroErrorFailover: true, ByteEqualReplicas: true, HedgeP99Improved: true,
			VictimShardQueries: 40, HedgeWins: 3,
		}, new(FailoverResult)},
		{"rebalance", &RebalanceResult{
			ZeroErrorJoin: true, EpochAdvancedOnce: true, JoinerOwnsShards: true, AnswersPreserved: true,
			JoinQueries: 90, JoinP99Ms: 1.5,
		}, new(RebalanceResult)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.fresh.Check(); err == nil {
				t.Error("zero result passed Check")
			}
			if err := c.passing.Check(); err != nil {
				t.Fatalf("passing result rejected: %v", err)
			}
			doc, err := json.Marshal(c.passing)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(doc, c.fresh); err != nil {
				t.Fatal(err)
			}
			if err := c.fresh.Check(); err != nil {
				t.Errorf("passing result rejected after a JSON round trip: %v\n%s", err, doc)
			}
		})
	}
}
