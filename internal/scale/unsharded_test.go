package scale

import "testing"

// TestUnshardingLeftTheScienceAlone pins the scale suite's results across
// the removal of the sharded message transport. Every time and error literal
// was recorded (%.17g) on the last build that had it, run 8-way sharded at
// the suite's default templates and seed 11; the slot protocol must land on
// the same bits. Events is the one field that moved (a slot report's Wake is
// a counted kernel event, a message deposit was not), so it is pinned as the
// slot protocol's own exact count.
func TestUnshardingLeftTheScienceAlone(t *testing.T) {
	for _, want := range []BarrierStats{
		{Ranks: 4096, Rounds: 3, Depth: 4, FinishTime: 0.00059632985574680723, MinFinish: 0.00056592985574680725, Events: 39855},
		{Ranks: 100_000, Rounds: 3, Depth: 6, FinishTime: 0.00066817860732741152, MinFinish: 0.00062417860732741164, Events: 973501},
	} {
		got, err := RunBarrier(testBarrierConfig(want.Ranks, 8, 11))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("barrier:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, want := range []HierSyncStats{
		{Ranks: 4096, Stages: 13, FinishTime: 0.00054578422534024235, MaxAbsError: 2.585356190131077e-07, RMSError: 7.124864386299938e-08, Events: 12286},
		{Ranks: 100_000, Stages: 17, FinishTime: 0.00077430579340047952, MaxAbsError: 3.7212529127786106e-07, RMSError: 9.1034133059530454e-08, Events: 299998},
	} {
		cfg := testHierSyncConfig(want.Ranks, 11)
		cfg.Exchanges = 10
		got, err := RunHierSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("hiersync:\n got %+v\nwant %+v", got, want)
		}
	}
}
