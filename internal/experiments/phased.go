package experiments

// Phased execution: a suite states its per-rank program once, as an ordered
// list of phase bodies, and runPhases runs one mpi.Session phase per body.
// Every boundary is a quiescent virtual-time cut — the fence the golden
// hashes pin — but nothing is saved there: the sweep ledger checkpoints
// whole tasks, and each of these tasks' last cut comes after nearly all of
// its work (DESIGN.md §11). Two suites use it: syncAccuracyRun (figs. 3–6)
// fences the accuracy check off the sync, and fig7Cell puts one fence
// between message sizes. A body hands later bodies data only through state
// the suite captures in its closures; a rank's *mpi.Proc, and with it any
// clock over it, persists from phase to phase.

import "hclocksync/internal/mpi"

// runPhases executes bodies on a job built from cfg, one session phase per
// body. A phase ends when every rank has left its body; the next one respawns
// the ranks in rank order at the cut's global virtual time.
func runPhases(cfg mpi.Config, bodies []func(*mpi.Proc)) error {
	s, err := mpi.NewSession(cfg)
	if err != nil {
		return err
	}
	for _, body := range bodies {
		if err := s.RunPhase(body); err != nil {
			return err
		}
	}
	return nil
}
